package figures

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// goldenScale is one pinned regeneration of every experiment: the sha256 of
// the bytes `spbtables` prints at that scale and the number of simulations
// the harness's runner performed for them. Recorded at 3889a15, before the
// evaluation layer was rewritten to read by name; equal to
// `spbtables -quick -insts 20000 | sha256sum` and
// `spbtables -insts 20000 | sha256sum` of that build.
type goldenScale struct {
	name  string
	scale Scale
	hash  string
	runs  uint64
}

var goldenScales = []goldenScale{
	{"sbbound", Scale{Insts: 20_000, SBBoundOnly: true},
		"872b333bb3bb03b12f21dd11e5725119a7e3ab139edbde27f77de3858b23cc7c", 712},
	{"spec", Scale{Insts: 20_000},
		"7b6ee77fc112607026f1b598dd551e003f82ab65d0995679fd011dd3e95cd0ff", 1717},
}

// regenerate runs every experiment in presentation order on h and returns the
// table titles and the sha256 of what `spbtables` would print.
func regenerate(t *testing.T, h *Harness) (titles []string, hash string) {
	t.Helper()
	sum := sha256.New()
	for _, e := range Experiments {
		tabs, err := e.Gen(h)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for _, tab := range tabs {
			titles = append(titles, tab.Title)
			sum.Write([]byte(tab.Format() + "\n"))
		}
	}
	return titles, hex.EncodeToString(sum.Sum(nil))
}

// TestTablesGolden pins the bytes of every table of every experiment and the
// simulations they cost. A change to any counter a figure reads, to a spec a
// figure submits or to the order of a floating-point sum shows up here.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment twice")
	}
	for _, g := range goldenScales {
		t.Run(g.name, func(t *testing.T) {
			h := NewHarness(g.scale)
			if _, hash := regenerate(t, h); hash != g.hash {
				t.Errorf("tables hash %s, want %s", hash, g.hash)
			}
			if runs := h.Runner().Runs(); runs != g.runs {
				t.Errorf("%d simulations, want %d", runs, g.runs)
			}
		})
	}
}

// TestOutTablesFullTitles keeps out/tables_full.txt what its command prints:
// the table titles in the file (every line that opens the file or follows a
// blank line) are exactly the titles the registry generates, in order, each
// once. A duplicated, missing or renamed table fails here. Titles do not
// depend on results, so the registry runs on the recorder and simulates
// nothing.
func TestOutTablesFullTitles(t *testing.T) {
	f, err := os.Open("../../out/tables_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var inFile []string
	sc := bufio.NewScanner(f)
	for prevBlank := true; sc.Scan(); prevBlank = sc.Text() == "" {
		if prevBlank && sc.Text() != "" {
			inFile = append(inFile, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	generated, _ := regenerate(t, NewHarnessOn(context.Background(), Full, &recorder{}))
	at := func(titles []string, i int) string {
		if i < len(titles) {
			return titles[i]
		}
		return "(none)"
	}
	for i := 0; i < len(inFile) || i < len(generated); i++ {
		if at(inFile, i) != at(generated, i) {
			t.Fatalf("out/tables_full.txt holds %d tables, the registry generates %d; table %d is\nfile:     %s\nregistry: %s",
				len(inFile), len(generated), i, at(inFile, i), at(generated, i))
		}
	}
}
