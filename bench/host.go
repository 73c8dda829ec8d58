package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostFacts is recorded with every set of results: numbers from different
// hosts, toolchains or commits are not comparable.
type hostFacts struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	CPUModel  string  `json:"cpu_model"`
	Load1     float64 `json:"load1_at_start"`
}

func readHostFacts(root string) hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown", CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fs := strings.Fields(string(data)); len(fs) > 0 {
			h.Load1, _ = strconv.ParseFloat(fs[0], 64)
		}
	}
	// The driver's checkout is not a git repository; only ask git when the
	// checkout itself is one, so the lookup never wanders into a parent.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// selfPeakRSSMiB is ru_maxrss of this process.
func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// selfCPUSeconds is user + system CPU time of this process so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procRSSMiB is VmRSS of another live process.
func procRSSMiB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			if fs := strings.Fields(rest); len(fs) > 0 {
				kb, _ := strconv.ParseFloat(fs[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// findRoot walks up from the working directory to the checkout root: the
// directory of module spb, recognised by the daemon's source.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "spbd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
