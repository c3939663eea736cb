package reader_test

import (
	"reflect"
	"sync"
	"testing"

	"pdfshield/internal/corpus"
	"pdfshield/internal/hook"
	"pdfshield/internal/reader"
)

// sharedOpen is what one open shows the outside: its result, the hooked
// calls it made and the files it left in its process's OS.
type sharedOpen struct {
	Res    reader.OpenResult
	Events []hook.Event
	Files  map[string]string
}

// openIn opens a document in a fresh process: from view when it is
// non-nil, else by parsing raw.
func openIn(t *testing.T, id string, raw []byte, view *reader.Prepared) sharedOpen {
	t.Helper()
	sink := &hook.RecordingSink{}
	p := reader.NewProcess(reader.Config{ViewerVersion: 8.0, Sink: sink})
	defer p.Close()
	var res *reader.OpenResult
	var err error
	if view != nil {
		res, err = p.OpenPrepared(id, view, reader.OpenOptions{})
	} else {
		res, err = p.Open(id, raw, reader.OpenOptions{})
	}
	if err != nil {
		t.Errorf("open %s: %v", id, err)
		return sharedOpen{}
	}
	out := sharedOpen{Res: *res, Events: sink.Events(), Files: make(map[string]string)}
	for _, ev := range out.Events {
		if ev.API == "NtCreateFile" && len(ev.Args) > 0 {
			data, _ := p.OS().ReadFile(ev.Args[0])
			out.Files[ev.Args[0]] = string(data)
		}
	}
	return out
}

// TestSharedViewConcurrentOpens opens one prepared view from several
// processes on several goroutines at once. Every open must match a fresh
// parse of the bytes, and under -race no open may write into the view.
// The families cover every part of a view: scripts and /Next sequences,
// Info strings, the egg and embedded payload programs.
func TestSharedViewConcurrentOpens(t *testing.T) {
	g := corpus.NewGenerator(11)
	samples := []corpus.Sample{g.BenignFormJS(), g.BenignMultiScript()}
	for _, fam := range []string{"mal-flash", "mal-cooltype", "mal-egghunt", "mal-titlehidden", "mal-staged"} {
		s, ok := g.MaliciousFamily(fam)
		if !ok {
			t.Fatalf("no family %s", fam)
		}
		samples = append(samples, s)
	}
	for _, s := range samples {
		view, err := reader.Prepare(s.Raw)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		want := openIn(t, s.ID, s.Raw, nil)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 2; r++ {
					if got := openIn(t, s.ID, nil, view); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: open of the shared view differs from a fresh parse\nview:  %+v\nparse: %+v", s.ID, got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
}
