package dnn

import (
	"fmt"
	"strings"
)

// ClassConfusion is a multi-class confusion matrix for classifier
// evaluation (the per-class view behind the cascade's accuracy numbers).
type ClassConfusion struct {
	// K is the number of classes; Counts[truth][predicted] the tallies.
	K      int
	Counts [][]int
}

// NewClassConfusion returns an empty K-class matrix.
func NewClassConfusion(k int) (*ClassConfusion, error) {
	if k < 2 {
		return nil, fmt.Errorf("dnn: confusion matrix needs >= 2 classes, got %d", k)
	}
	c := &ClassConfusion{K: k, Counts: make([][]int, k)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, k)
	}
	return c, nil
}

// Add tallies one (truth, predicted) pair.
func (c *ClassConfusion) Add(truth, predicted int) error {
	if truth < 0 || truth >= c.K || predicted < 0 || predicted >= c.K {
		return fmt.Errorf("dnn: class out of range: truth %d, predicted %d (K=%d)", truth, predicted, c.K)
	}
	c.Counts[truth][predicted]++
	return nil
}

// Accuracy returns overall accuracy (0 with no samples).
func (c *ClassConfusion) Accuracy() float64 {
	correct, total := 0, 0
	for i := range c.Counts {
		for j, n := range c.Counts[i] {
			total += n
			if i == j {
				correct += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// PerClassRecall returns recall per class (NaN-free: classes with no truth
// samples report 0).
func (c *ClassConfusion) PerClassRecall() []float64 {
	out := make([]float64, c.K)
	for i := range c.Counts {
		total := 0
		for _, n := range c.Counts[i] {
			total += n
		}
		if total > 0 {
			out[i] = float64(c.Counts[i][i]) / float64(total)
		}
	}
	return out
}

// String renders the matrix with optional class labels.
func (c *ClassConfusion) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "accuracy %.3f\n", c.Accuracy())
	for i, row := range c.Counts {
		fmt.Fprintf(&sb, "class %d: %v\n", i, row)
	}
	return sb.String()
}

// EvaluateCascade scores a trained cascade on labelled samples, all of one
// window length, in one batch and returns the application and attack
// confusion matrices.
func EvaluateCascade(c *Cascade, samples []CascadeSample) (app, atk *ClassConfusion, err error) {
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("dnn: no evaluation samples")
	}
	w := len(samples[0].Window)
	flat := make([]float64, 0, len(samples)*w*2)
	for i, s := range samples {
		if len(s.Window) != w {
			return nil, nil, fmt.Errorf("dnn: evaluation sample %d has window %d, sample 0 has %d", i, len(s.Window), w)
		}
		for _, row := range s.Window {
			flat = append(flat, row[0], row[1])
		}
	}
	scorer, err := c.Scorer(w, ScorerOptions{})
	if err != nil {
		return nil, nil, err
	}
	apps, attacks := make([]int, len(samples)), make([]int, len(samples))
	scorer.ScoreFlat(len(samples), flat, apps, attacks)

	app, err = NewClassConfusion(c.NumApps)
	if err != nil {
		return nil, nil, err
	}
	atk, err = NewClassConfusion(NumAttackClasses)
	if err != nil {
		return nil, nil, err
	}
	for i, s := range samples {
		if err := app.Add(s.AppLabel, apps[i]); err != nil {
			return nil, nil, err
		}
		if err := atk.Add(s.AttackLabel, attacks[i]); err != nil {
			return nil, nil, err
		}
	}
	return app, atk, nil
}
