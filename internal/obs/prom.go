package obs

import (
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
)

// Family is one Prometheus metric family: what /metrics says about it and
// where its samples come from. Every spbd_* series — the daemon's, the
// runner's, the tenants' — is declared as one Family and rendered by
// WriteFamilies.
type Family struct {
	Name, Type, Help string
	// Collect reports the family's current samples through emit. labels is a
	// rendered label list without braces (`tier="disk"`; "" for none); v is
	// an integer for a counter or gauge, a *Histogram for a histogram.
	Collect func(emit func(labels string, v any))
}

// Read declares a label-free counter or gauge whose one sample is read at
// scrape time.
func Read[T int | int64 | uint64](name, typ, help string, read func() T) Family {
	return Family{name, typ, help, func(emit func(string, any)) { emit("", read()) }}
}

// Families declares one family per tagged field of the struct v points to.
// A field carries `metric:"name" help:"..."` and is an atomic.Uint64 (a
// counter), an atomic.Int64 (a gauge) or a Histogram; consecutive fields
// with one name are one family, told apart by `labels:"k=\"v\""` (the help
// is the first field's). The field is the instrument the code bumps and the
// tag is everything /metrics says about it, so a metric is declared once.
func Families(v any) []Family {
	rv := reflect.ValueOf(v).Elem()
	var fams []Family
	for i := 0; i < rv.NumField(); i++ {
		tag := rv.Type().Field(i).Tag
		name, labels := tag.Get("metric"), tag.Get("labels")
		if name == "" {
			continue
		}
		var typ string
		var read func() any
		switch p := rv.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			typ, read = "counter", func() any { return p.Load() }
		case *atomic.Int64:
			typ, read = "gauge", func() any { return p.Load() }
		case *Histogram:
			typ, read = "histogram", func() any { return p }
		default:
			panic(fmt.Sprintf("obs: metric %s is declared on a %T", name, p))
		}
		collect := func(emit func(string, any)) { emit(labels, read()) }
		if n := len(fams); n > 0 && fams[n-1].Name == name {
			first := fams[n-1].Collect
			fams[n-1].Collect = func(emit func(string, any)) { first(emit); collect(emit) }
			continue
		}
		fams = append(fams, Family{name, typ, tag.Get("help"), collect})
	}
	return fams
}

// WriteFamilies renders the families in Prometheus text exposition format.
func WriteFamilies(w io.Writer, fams []Family) {
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		f.Collect(func(labels string, v any) {
			if h, ok := v.(*Histogram); ok {
				h.WriteProm(w, f.Name, labels)
				return
			}
			if labels != "" {
				labels = "{" + labels + "}"
			}
			fmt.Fprintf(w, "%s%s %d\n", f.Name, labels, v)
		})
	}
}
