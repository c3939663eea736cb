package baseline

import (
	"math/rand"

	"pdfshield/internal/instrument"
	"pdfshield/internal/ml"
	"pdfshield/internal/triage"
)

// Census is a PDFInspect-style detector: the triage tier's unified static
// census (suspicious names, structure stats, entropy, the F1–F5 vector)
// flattened through Census.FeatureVector feeds a bagged ensemble of
// decision trees. It shares the exact extraction the pipeline's fast path
// gates on, so Table IX can compare that feature set as a trained
// classifier against the baselines and the runtime detector.
type Census struct {
	seed  int64
	trees []*ml.Tree
}

var _ Detector = (*Census)(nil)

// NewCensus returns an untrained census detector.
func NewCensus(seed int64) *Census { return &Census{seed: seed} }

// Name implements Detector.
func (*Census) Name() string { return "census" }

const censusTrees = 9

// censusVector extracts the triage census features for one document. The
// front end's structural analysis is reused when the document parses;
// unparseable input falls back to the bytes-only census, whose
// "no-analysis" flag leaves the structural columns zero — itself signal.
func censusVector(raw []byte) []float64 {
	var res *instrument.Result
	if feats, chains, doc, err := instrument.Analyze(raw); err == nil {
		res = &instrument.Result{
			Features:    feats,
			Chains:      chains,
			Recovered:   doc.Recovered,
			ObjectCount: chains.TotalObjects,
		}
	}
	return triage.TakeCensus(raw, res).FeatureVector()
}

// Train implements Detector: a bagged tree ensemble over census vectors.
func (d *Census) Train(benign, malicious [][]byte) error {
	ds := &ml.Dataset{Dim: triage.CensusDim}
	for _, raw := range benign {
		ds.Add(censusVector(raw), -1)
	}
	for _, raw := range malicious {
		ds.Add(censusVector(raw), 1)
	}
	//nolint:gosec // deterministic bootstrap resampling.
	rng := rand.New(rand.NewSource(d.seed + 7))
	d.trees = d.trees[:0]
	for t := 0; t < censusTrees; t++ {
		boot := &ml.Dataset{Dim: ds.Dim}
		for i := 0; i < len(ds.Examples); i++ {
			ex := ds.Examples[rng.Intn(len(ds.Examples))]
			boot.Examples = append(boot.Examples, ex)
		}
		d.trees = append(d.trees, ml.TrainTree(boot, ml.TreeConfig{MaxDepth: 8, MinLeafSize: 2}))
	}
	return nil
}

// Classify implements Detector by majority vote of the ensemble.
func (d *Census) Classify(raw []byte) (bool, error) {
	if len(d.trees) == 0 {
		return false, ErrUntrained
	}
	x := censusVector(raw)
	votes := 0
	for _, t := range d.trees {
		if t.Predict(x) > 0 {
			votes++
		}
	}
	return votes*2 > len(d.trees), nil
}
