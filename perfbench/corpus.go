package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"pdfshield/internal/corpus"
)

// doc is one unique generated document with its ground truth.
type doc struct {
	raw     []byte
	family  string
	label   corpus.Label
	outcome corpus.Outcome
}

// submission is one document handed to the system under test. Every
// submission has its own ID; a resubmission shares the bytes of an
// earlier one, never its ID.
type submission struct {
	id     string
	doc    *doc
	repeat bool
}

// stream is a workload's generated input: an untimed warm-up followed by
// the submissions the timed window consumes in order.
type stream struct {
	warm []submission
	subs []submission
	// docs lists every unique document the stream references (warm-up
	// included), so the benchmark knows how many bytes it holds itself.
	docs []*doc
}

// variant is one document family a category draws, with its weight.
type variant struct {
	weight int
	build  func(g *corpus.Generator, rng *rand.Rand) corpus.Sample
}

// category is one slice of a workload's mix: its share of every block of
// submissions and the families it draws from.
type category struct {
	share    int
	variants []variant
}

// fam is a variant built by one corpus.Generator method.
func fam(weight int, build func(*corpus.Generator) corpus.Sample) variant {
	return variant{weight, func(g *corpus.Generator, _ *rand.Rand) corpus.Sample { return build(g) }}
}

var (
	// scriptless draws BenignBatch's size range for scriptless documents.
	scriptless = []variant{{1, func(g *corpus.Generator, rng *rand.Rand) corpus.Sample {
		return g.BenignText(4<<10 + rng.Intn(900<<10))
	}}}

	// benignJS is corpus.BenignWithJS's family mix, form builders
	// included, per 20 documents.
	benignJS = []variant{
		fam(1, (*corpus.Generator).BenignSOAPJS),
		fam(2, (*corpus.Generator).BenignMultiScript),
		fam(1, (*corpus.Generator).BenignEncrypted),
		fam(3, (*corpus.Generator).BenignNavJS),
		fam(13, (*corpus.Generator).BenignFormJS),
	}

	malicious = weighted(maliciousWeights)
	evasive   = weighted(evasiveWeights)
)

// maliciousWeights is corpus.Malicious's weighted family mix.
var maliciousWeights = map[string]int{
	"mal-printf": 18, "mal-geticon": 16, "mal-newplayer": 12, "mal-customdict": 7,
	"mal-printseps": 5, "mal-flash": 8, "mal-cooltype": 8, "mal-getannots": 4,
	"mal-xfa": 2, "mal-egghunt": 4, "mal-driveby": 4, "mal-staged": 2,
	"mal-delayed": 2, "mal-titlehidden": 2, "mal-embedded": 2, "mal-crasher": 2,
	"mal-crasher-clean": 3,
}

var evasiveWeights = map[string]int{"mal-timebomb": 1, "mal-envgate": 1, "mal-emucheck": 1}

// weighted turns a family weight table into variants, in the corpus
// package's family order so decks are the same on every run.
func weighted(weights map[string]int) []variant {
	var out []variant
	for _, name := range append(corpus.MaliciousFamilies(), corpus.EvasiveKinds()...) {
		w, ok := weights[name]
		if !ok {
			continue
		}
		out = append(out, variant{w, func(g *corpus.Generator, _ *rand.Rand) corpus.Sample {
			if s, ok := g.MaliciousFamily(name); ok {
				return s
			}
			s, ok := g.Evasive(name)
			if !ok {
				panic("perfbench: unknown family " + name)
			}
			return s
		}})
	}
	return out
}

// mixedMix is ROADMAP's traffic-shaped mix, per 100 submissions.
var mixedMix = []category{
	{70, scriptless},
	{17, benignJS},
	{10, malicious},
	{3, evasive},
}

// scriptedMix is the scripted slices of mixedMix, in the same ratio, less
// the form builders: triage escalates a random third of those to deep
// scans of about half a second each, so a window holds only a few dozen
// of them and their count alone moves throughput by a fifth from seed to
// seed. Every other family routes the same way every time.
var scriptedMix = []category{
	{17, benignJS[:4]},
	{10, malicious},
	{3, evasive},
}

// interactiveMix is light benign scripting only: no form builders, no
// exploits, per 20 pool documents.
var interactiveMix = []category{
	{8, []variant{fam(1, (*corpus.Generator).BenignInteractiveJS)}},
	{4, []variant{fam(1, (*corpus.Generator).BenignNavJS)}},
	{3, []variant{fam(1, (*corpus.Generator).BenignMultiScript)}},
	{3, []variant{fam(1, (*corpus.Generator).BenignEncrypted)}},
	{2, []variant{fam(1, (*corpus.Generator).BenignSOAPJS)}},
}

// deck deals indices in proportion to their weights: every full pass over
// the deck holds each index exactly weight times, in a shuffled order.
// Dealing categories and families from decks keeps every prefix of a
// stream close to the stated mix whatever the seed.
type deck struct {
	weights []int
	cards   []int
}

func (d *deck) deal(rng *rand.Rand) int {
	if len(d.cards) == 0 {
		for i, w := range d.weights {
			for j := 0; j < w; j++ {
				d.cards = append(d.cards, i)
			}
		}
		rng.Shuffle(len(d.cards), func(a, b int) { d.cards[a], d.cards[b] = d.cards[b], d.cards[a] })
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

// slot is one planned submission: its category and family, and whether
// it resubmits the bytes of an earlier document of its category.
type slot struct {
	cat, variant int
	repeat       bool
}

// plan lays out n slots. With repeatFifth, one slot in five (dealt from a
// deck of five) resubmits an earlier document, provided its category
// already has one; families are dealt for fresh slots only.
func plan(mix []category, rng *rand.Rand, n int, repeatFifth bool) []slot {
	cats := &deck{}
	fams := make([]*deck, len(mix))
	for i, c := range mix {
		cats.weights = append(cats.weights, c.share)
		fams[i] = &deck{}
		for _, v := range c.variants {
			fams[i].weights = append(fams[i].weights, v.weight)
		}
	}
	repeats := &deck{weights: []int{4, 1}}
	seen := make([]bool, len(mix))
	out := make([]slot, 0, n)
	for len(out) < n {
		s := slot{cat: cats.deal(rng)}
		if repeatFifth && repeats.deal(rng) == 1 && seen[s.cat] {
			s.repeat = true
		} else {
			s.variant = fams[s.cat].deal(rng)
		}
		seen[s.cat] = true
		out = append(out, s)
	}
	return out
}

// chunkSlots is how many planned slots one generator builds. Chunks have
// their own generators, seeded from the workload seed and the chunk
// index, so they can be built in parallel and still come out the same.
const chunkSlots = 50

// generate builds every fresh slot's document (nil for repeats), a chunk
// per generator, on as many goroutines as there are CPUs.
func generate(mix []category, seed int64, slots []slot) []*doc {
	docs := make([]*doc, len(slots))
	chunks := (len(slots) + chunkSlots - 1) / chunkSlots
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= chunks {
					return
				}
				chunkSeed := seed*1_000_003 + int64(k)
				g := corpus.NewGenerator(chunkSeed)
				//nolint:gosec // deterministic workload synthesis, not cryptography.
				rng := rand.New(rand.NewSource(chunkSeed ^ 0x5eed))
				for i := k * chunkSlots; i < len(slots) && i < (k+1)*chunkSlots; i++ {
					sl := slots[i]
					if sl.repeat {
						continue
					}
					s := mix[sl.cat].variants[sl.variant].build(g, rng)
					docs[i] = &doc{raw: s.Raw, family: s.Family, label: s.Label, outcome: s.Outcome}
				}
			}
		}()
	}
	wg.Wait()
	return docs
}

// builder turns planned documents into submissions with unique IDs.
type builder struct {
	st   stream
	next int
}

func (b *builder) submit(prefix string, d *doc, repeat bool) submission {
	b.next++
	return submission{id: fmt.Sprintf("%s-%06d-%s", prefix, b.next, d.family), doc: d, repeat: repeat}
}

// planRNG is the RNG that lays out a workload's slots.
func planRNG(seed int64) *rand.Rand {
	//nolint:gosec // deterministic workload synthesis, not cryptography.
	return rand.New(rand.NewSource(seed))
}

// buildMixed is the mixed_standard stream: mixedMix with one submission in
// five resubmitting the bytes of an earlier document of the same
// category, so resubmissions keep the mix too.
func buildMixed(seed int64, n int) *stream {
	slots := plan(mixedMix, planRNG(seed), n, true)
	docs := generate(mixedMix, seed, slots)
	// Repeats draw from their own RNG, so a longer stream of the same seed
	// starts with the same submissions.
	rng := planRNG(^seed)
	b := &builder{}
	byCat := make([][]*doc, len(mixedMix))
	for i, sl := range slots {
		d := docs[i]
		if sl.repeat {
			earlier := byCat[sl.cat]
			d = earlier[rng.Intn(len(earlier))]
		} else {
			byCat[sl.cat] = append(byCat[sl.cat], d)
			b.st.docs = append(b.st.docs, d)
		}
		b.st.subs = append(b.st.subs, b.submit("mix", d, sl.repeat))
	}
	return &b.st
}

// Pool sizes: the unique documents interactive_standard and
// scripted_auto resubmit round-robin. Both workloads scan far faster than
// their documents can be generated, so a window cannot be fed unique
// documents only.
const (
	interactivePool = 240
	scriptedPool    = 600
)

// buildPool is a stream over a pool of mix documents, submitted once as
// the warm-up (which fills the front-end cache) and then round-robin
// under fresh IDs.
func buildPool(mix []category, size int, prefix string, seed int64, n int) *stream {
	pool := generate(mix, seed, plan(mix, planRNG(seed), size, false))
	b := &builder{st: stream{docs: pool}}
	for _, d := range pool {
		b.st.warm = append(b.st.warm, b.submit("warm", d, false))
	}
	for i := 0; i < n; i++ {
		b.st.subs = append(b.st.subs, b.submit(prefix, pool[i%len(pool)], true))
	}
	return &b.st
}

// buildInteractive is the interactive_standard stream.
func buildInteractive(seed int64, n int) *stream {
	return buildPool(interactiveMix, interactivePool, "int", seed, n)
}

// buildScripted is the scripted_auto stream.
func buildScripted(seed int64, n int) *stream {
	return buildPool(scriptedMix, scriptedPool, "scr", seed, n)
}

// heldBytes is the size of every document the stream holds.
func (st *stream) heldBytes() int64 {
	var n int64
	for _, d := range st.docs {
		n += int64(len(d.raw))
	}
	return n
}

// checkUniqueIDs fails when two submissions share an ID.
func (st *stream) checkUniqueIDs() error {
	seen := make(map[string]bool, len(st.warm)+len(st.subs))
	for _, list := range [][]submission{st.warm, st.subs} {
		for _, s := range list {
			if seen[s.id] {
				return fmt.Errorf("duplicate doc ID %s", s.id)
			}
			seen[s.id] = true
		}
	}
	return nil
}

// corpusStamp describes the submissions one timed window consumed.
type corpusStamp struct {
	PerFamily   map[string]int `json:"per_family"`
	Unique      int            `json:"unique"`
	Resubmitted int            `json:"resubmitted"`
	TotalBytes  int64          `json:"total_bytes"`
}

func stampOf(subs []submission) corpusStamp {
	cs := corpusStamp{PerFamily: map[string]int{}}
	for _, s := range subs {
		cs.PerFamily[s.doc.family]++
		if s.repeat {
			cs.Resubmitted++
		} else {
			cs.Unique++
		}
		cs.TotalBytes += int64(len(s.doc.raw))
	}
	return cs
}
