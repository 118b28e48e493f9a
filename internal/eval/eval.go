// Package eval implements the evaluation bookkeeping of the paper §5.3:
// accuracy (true-positive ratio), false-positive ratio and false-negative
// ratio over link sets, plus aggregation across trials.
package eval

import (
	"fmt"

	"github.com/detector-net/detector/internal/topo"
)

// Confusion compares a predicted bad-link set with ground truth.
type Confusion struct {
	TP, FP, FN int
}

// Compare builds a Confusion from predicted and true link sets.
func Compare(predicted, truth []topo.LinkID) Confusion {
	t := make(map[topo.LinkID]bool, len(truth))
	for _, l := range truth {
		t[l] = true
	}
	var c Confusion
	seen := make(map[topo.LinkID]bool, len(predicted))
	for _, l := range predicted {
		if seen[l] {
			continue
		}
		seen[l] = true
		if t[l] {
			c.TP++
		} else {
			c.FP++
		}
	}
	c.FN = len(t) - c.TP
	return c
}

// Accuracy is the paper's definition: bad links correctly identified over
// all truly bad links (true-positive ratio). 1 when there is nothing to
// find and nothing was found.
func (c Confusion) Accuracy() float64 {
	if c.TP+c.FN == 0 {
		if c.FP == 0 {
			return 1
		}
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FalsePositiveRatio is good links incorrectly identified as bad over all
// identified links (paper §5.3). 0 when nothing was identified.
func (c Confusion) FalsePositiveRatio() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.TP+c.FP)
}

// FalseNegativeRatio is bad links missed over all truly bad links.
func (c Confusion) FalseNegativeRatio() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.FN) / float64(c.TP+c.FN)
}

// Add accumulates another confusion (for multi-trial averaging by pooling).
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
}

// String formats the three ratios.
func (c Confusion) String() string {
	return fmt.Sprintf("acc=%.2f%% fp=%.2f%% fn=%.2f%%",
		100*c.Accuracy(), 100*c.FalsePositiveRatio(), 100*c.FalseNegativeRatio())
}
