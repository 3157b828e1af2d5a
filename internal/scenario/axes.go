package scenario

import (
	"errors"
	"fmt"

	"react/internal/sim"
)

// This file is the one implementation of the seed and timestep axes every
// multi-point resource resolves: the service's sweeps, the exploration
// subsystem's spaces, and any future axis-shaped API. One copy means the
// rules — seeds start at 1, duplicates double-weight statistics and are
// rejected, dt 0 means the spec's default and duplicates are detected
// after resolution — can never drift between consumers.

// ResolveSeed resolves the effective seed of the spec under an override:
// 0 means the spec's seed, which itself defaults to 1.
func (s *Spec) ResolveSeed(override uint64) uint64 {
	return RunOptions{Seed: override}.seed(s)
}

// ResolveDT resolves the effective timestep of the spec under an
// override: 0 → the spec's → the engine's sim.DefaultDT.
func (s *Spec) ResolveDT(override float64) float64 {
	if override > 0 {
		return override
	}
	if s.DT > 0 {
		return s.DT
	}
	return sim.DefaultDT
}

// ResolveSeedAxis resolves a seed-axis request against the spec: an
// explicit list (each ≥ 1, distinct), a range from..to (from defaulting
// to 1, spanning at most maxCells seeds), or — with neither — the spec's
// single resolved seed. Exactly the axis `POST /sweeps` and explorations
// accept.
func (s *Spec) ResolveSeedAxis(list []uint64, from, to uint64, maxCells int) ([]uint64, error) {
	switch {
	case len(list) > 0:
		if from != 0 || to != 0 {
			return nil, errors.New("set either seeds or seed_from/seed_to, not both")
		}
		seen := map[uint64]bool{}
		for _, seed := range list {
			if seed == 0 {
				return nil, errors.New("seed 0 is not expressible (seeds start at 1)")
			}
			// A repeated seed would double-weight that run in every summary
			// statistic without simulating anything new.
			if seen[seed] {
				return nil, fmt.Errorf("duplicate seed %d", seed)
			}
			seen[seed] = true
		}
		return append([]uint64(nil), list...), nil
	case to != 0:
		if from == 0 {
			from = 1
		}
		if to < from {
			return nil, fmt.Errorf("empty seed range %d..%d", from, to)
		}
		if to-from >= uint64(maxCells) {
			return nil, fmt.Errorf("seed range %d..%d exceeds the %d-cell bound", from, to, maxCells)
		}
		seeds := make([]uint64, 0, to-from+1)
		for seed := from; seed <= to; seed++ {
			seeds = append(seeds, seed)
		}
		return seeds, nil
	case from != 0:
		return nil, errors.New("seed_from needs seed_to")
	default:
		return []uint64{s.ResolveSeed(0)}, nil
	}
}

// ResolveDTAxis resolves a timestep-axis request against the spec: each
// entry validated and resolved (0 means the spec's default) and
// duplicates rejected after resolution — 0 and the spec's spelled-out
// default are the same axis point and would yield two identical rows. An
// empty request is the spec's single resolved timestep.
func (s *Spec) ResolveDTAxis(list []float64) ([]float64, error) {
	if len(list) == 0 {
		return []float64{s.ResolveDT(0)}, nil
	}
	dts := make([]float64, 0, len(list))
	seen := map[float64]bool{}
	for _, dt := range list {
		if err := (RunOptions{DT: dt}).Validate(); err != nil {
			return nil, err
		}
		rdt := s.ResolveDT(dt)
		if seen[rdt] {
			return nil, fmt.Errorf("duplicate timestep %g", rdt)
		}
		seen[rdt] = true
		dts = append(dts, rdt)
	}
	return dts, nil
}
