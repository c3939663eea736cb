package main

import "testing"

// TestDeepBenchCorpusUniqueIDs pins that every document in the deep-scan
// corpus has its own ID, across families and seed replicas alike.
func TestDeepBenchCorpusUniqueIDs(t *testing.T) {
	samples := deepBenchCorpus(20140623)
	if len(samples) < 2*deepBenchSeedsPerKind {
		t.Fatalf("corpus has only %d samples", len(samples))
	}
	seen := make(map[string]bool, len(samples))
	for _, s := range samples {
		if seen[s.ID] {
			t.Errorf("duplicate doc ID %q", s.ID)
		}
		seen[s.ID] = true
	}
}
