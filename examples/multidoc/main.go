// Multidoc: the paper's motivating scenario. Users open many PDFs at once
// inside one single-threaded reader process; context-free monitoring cannot
// tell a heap spray from ordinary rendering memory, and cannot say WHICH
// open document attacked. Context-aware monitoring does both.
//
// The example opens two benign documents and one malicious one in a single
// reader session, then shows (a) the detector attributing the infection to
// exactly the right document and (b) the context-free memory curve that
// makes threshold-based detection hopeless (Figure 8's point).
//
// Run with: go run ./examples/multidoc
package main

import (
	"fmt"
	"log"

	"pdfshield"
	"pdfshield/internal/corpus"
	"pdfshield/internal/reader"
)

func main() {
	sys, err := pdfshield.New(pdfshield.Options{ViewerVersion: 8.0, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = sys.Close() }()

	g := corpus.NewGenerator(23)
	report := g.BenignNavJS()
	invoice := g.BenignFormJS()
	exploit, _ := g.MaliciousFamily("mal-geticon")

	fmt.Println("opening three documents in ONE reader process:")
	sess := sys.NewSession()
	for _, s := range []corpus.Sample{report, exploit, invoice} {
		if err := sess.Open(s.ID, s.Raw); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  opened %-28s (%s)\n", s.ID, s.Family)
	}
	sess.Close()

	fmt.Println("\nattribution:")
	for _, s := range []corpus.Sample{report, exploit, invoice} {
		fmt.Printf("  %-28s malicious=%v\n", s.ID, sys.IsMalicious(s.ID))
	}
	for _, a := range sys.Alerts() {
		fmt.Printf("\nalert: doc=%s malscore=%d features=%v\n", a.DocID, a.Malscore, a.Features.Positive())
		for _, op := range a.Ops {
			fmt.Printf("  op: %s\n", op)
		}
	}

	// Context-free contrast: an unmonitored reader opening many benign
	// copies shows memory growth that dwarfs a 100 MB spray threshold.
	fmt.Println("\ncontext-free memory of an unprotected reader opening 12 benign copies:")
	proc := reader.NewProcess(reader.Config{ViewerVersion: 9.0})
	defer proc.Close()
	big := g.Sized(8<<20, false)
	for i := 1; i <= 12; i++ {
		res, err := proc.Open(fmt.Sprintf("copy-%d", i), big.Raw, reader.OpenOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  copies=%2d  process memory = %7.1f MB\n", i, res.MemAfterMB)
	}
	fmt.Println("\na fixed context-free threshold would flag these benign copies long")
	fmt.Println("before flagging a 150 MB spray — JS-context measurement is the fix.")
}
