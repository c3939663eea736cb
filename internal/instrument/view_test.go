package instrument_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"pdfshield/internal/cache"
	"pdfshield/internal/corpus"
	"pdfshield/internal/instrument"
	"pdfshield/internal/pdf"
	"pdfshield/internal/reader"
)

// TestCachedArtifactPreparedOnce: every cache hit of one artifact opens
// the same prepared view, and the artifact's output is parsed for the
// reader once, however many hits ask for it and however concurrently.
func TestCachedArtifactPreparedOnce(t *testing.T) {
	var prepares atomic.Int32
	defer instrument.SetPrepareHook(func(*instrument.Result) { prepares.Add(1) })()

	ins := instrument.New(instrument.NewRegistry("oncetest0001"), instrument.Options{Seed: 3})
	c := cache.New(cache.Config{})
	raw := corpus.NewGenerator(3).BenignFormJS().Raw
	hash := instrument.ContentHash(raw)
	lookup := func() *instrument.Result {
		res, err, _ := c.Do(hash, func() (*instrument.Result, error) {
			return ins.InstrumentBytesWithHash("once", raw, hash)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := lookup()
	const hits = 8
	views := make([]*reader.Prepared, hits)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := lookup()
			if res != first {
				t.Error("cache hit returned another Result")
			}
			v, err := res.Prepared()
			if err != nil {
				t.Error(err)
			}
			views[i] = v
		}()
	}
	wg.Wait()
	for i, v := range views {
		if v == nil || v != views[0] {
			t.Fatalf("hit %d got view %p, hit 0 got %p: want one shared view", i, v, views[0])
		}
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("%d Prepare calls for one artifact, want 1", n)
	}
	if s := c.Stats(); s.Hits != hits {
		t.Fatalf("cache hits = %d, want %d", s.Hits, hits)
	}
}

// TestOversizedViewNotKept: a view larger than its Result's ViewBound (an
// egg that decompresses to far more than the whole file) is not kept, so
// the cache's store-time charge stays a bound; each call prepares a view
// of its own, as every open did before views were shared.
func TestOversizedViewNotKept(t *testing.T) {
	var prepares atomic.Int32
	defer instrument.SetPrepareHook(func(*instrument.Result) { prepares.Add(1) })()

	d := pdf.NewDocument()
	raw, filter, err := pdf.EncodeChain([]pdf.Name{pdf.FilterFlate}, append([]byte("EGG!"), make([]byte, 1<<20)...))
	if err != nil {
		t.Fatal(err)
	}
	d.Add(&pdf.Stream{Dict: pdf.Dict{"Type": pdf.Name("EmbeddedFile"), "Filter": filter}, Raw: raw})
	d.Trailer["Root"] = d.Add(pdf.Dict{"Type": pdf.Name("Catalog")})
	out, err := pdf.Write(d, pdf.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := &instrument.Result{Output: out}
	v1, err1 := res.Prepared()
	v2, err2 := res.Prepared()
	if err1 != nil || err2 != nil || v1 == nil || v2 == nil {
		t.Fatalf("Prepared = (%p, %v), (%p, %v)", v1, err1, v2, err2)
	}
	if v1.Size() <= res.ViewBound() {
		t.Fatalf("probe view is %d bytes, within its bound %d", v1.Size(), res.ViewBound())
	}
	if v1 == v2 {
		t.Fatal("an oversized view was kept")
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("%d Prepare calls through the once, want 1", n)
	}
}
