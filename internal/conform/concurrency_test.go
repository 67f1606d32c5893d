package conform

import (
	"testing"

	"github.com/lix-go/lix/internal/xindex"
)

// TestXIndexLinearizable runs the happens-before checker against XIndex
// with group sizes small enough to force compactions and RCU root swaps
// while readers are in flight. Run with -race to also catch data races.
func TestXIndexLinearizable(t *testing.T) {
	cfgs := []struct {
		name                string
		groupSize, deltaCap int
	}{
		{"small-groups", 128, 32}, // many splits and root swaps
		{"default-ish", 1024, 64},
	}
	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConcurrencyConfig()
			cfg.Seed = int64(c.groupSize)
			err := CheckConcurrent(func() MutableIndex {
				return xindex.New(c.groupSize, c.deltaCap)
			}, cfg)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrencyConfigValidation pins that a zero-valued configuration is
// rejected instead of silently running an empty (vacuously passing) check.
func TestConcurrencyConfigValidation(t *testing.T) {
	if err := CheckConcurrent(func() MutableIndex { return xindex.New(0, 0) },
		ConcurrencyConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}
