package rl

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// TileCoder maps a continuous d-dimensional state onto sparse binary
// features using T offset tilings — the classic coarse coding of Sutton &
// Barto. Compared to a single-grid discretiser, overlapping offset tilings
// generalise between neighbouring states while still resolving fine
// distinctions, removing the hard bucket cliffs of a table.
type TileCoder struct {
	lows, highs []float64
	tilesPerDim int
	tilings     int
	offsets     [][]float64 // [tiling][dim] fractional offsets in tile units
	perTiling   int         // tiles per tiling
}

// NewTileCoder builds a coder over the given per-dimension ranges with
// tilesPerDim tiles per dimension and the given number of offset tilings.
func NewTileCoder(lows, highs []float64, tilesPerDim, tilings int) (*TileCoder, error) {
	if len(lows) == 0 || len(lows) != len(highs) {
		return nil, fmt.Errorf("rl: tile coder needs matching bounds, got %d/%d", len(lows), len(highs))
	}
	for i := range lows {
		if highs[i] <= lows[i] {
			return nil, fmt.Errorf("rl: tile coder dimension %d has empty range [%g, %g]", i, lows[i], highs[i])
		}
	}
	if tilesPerDim < 1 || tilings < 1 {
		return nil, fmt.Errorf("rl: tile coder needs positive tiles (%d) and tilings (%d)", tilesPerDim, tilings)
	}
	tc := &TileCoder{
		lows:        append([]float64(nil), lows...),
		highs:       append([]float64(nil), highs...),
		tilesPerDim: tilesPerDim,
		tilings:     tilings,
		perTiling:   int(math.Pow(float64(tilesPerDim+1), float64(len(lows)))),
	}
	// Deterministic asymmetric offsets: tiling t is shifted by t·(2i+1)/T
	// tile-fractions in dimension i (the standard displacement vector).
	for t := 0; t < tilings; t++ {
		off := make([]float64, len(lows))
		for i := range off {
			off[i] = math.Mod(float64(t)*float64(2*i+1)/float64(tilings), 1.0)
		}
		tc.offsets = append(tc.offsets, off)
	}
	return tc, nil
}

// Features returns the number of binary features (one active per tiling).
func (tc *TileCoder) Features() int { return tc.tilings * tc.perTiling }

// ActiveTiles writes the indices of the active features for state x into
// dst (len(dst) must be Tilings()) and returns dst. Values outside the
// configured ranges clamp; NaN clamps to the low edge.
func (tc *TileCoder) ActiveTiles(x []float64, dst []int) []int {
	if len(x) != len(tc.lows) {
		panic(fmt.Sprintf("rl: tile coder got %d dims, want %d", len(x), len(tc.lows)))
	}
	if len(dst) != tc.tilings {
		dst = make([]int, tc.tilings)
	}
	for t := 0; t < tc.tilings; t++ {
		idx := 0
		for i := range x {
			v := (x[i] - tc.lows[i]) / (tc.highs[i] - tc.lows[i]) // [0,1]
			// Negated so NaN, which fails every comparison, clamps low too.
			if !(v >= 0) {
				v = 0
			} else if v > 1 {
				v = 1
			}
			tile := int(v*float64(tc.tilesPerDim) + tc.offsets[t][i])
			if tile > tc.tilesPerDim {
				tile = tc.tilesPerDim
			}
			idx = idx*(tc.tilesPerDim+1) + tile
		}
		dst[t] = t*tc.perTiling + idx
	}
	return dst
}

// Tilings returns the number of tilings (= active features per state).
func (tc *TileCoder) Tilings() int { return tc.tilings }

// LinearAgent is a SARSA(λ)-style learner with linear function
// approximation over tile-coded continuous states: Q(x, a) = Σ w[a][f] for
// active features f. It is the function-approximation counterpart of
// Agent and follows the same Begin/Step protocol, with continuous state
// vectors instead of table indices.
//
// Eligibility traces live in a sparse trail rather than a dense
// actions × features table: traceIdx and traceVal hold the flat
// (act·features + f) key and trace of every pair whose trace is non-zero.
// Invariant: a pair is in the trail iff its trace is non-zero. A trace
// decays by γλ per step and is cut to zero below 1e-8, so the trail stays
// within tilings × ⌈ln 1e-8 / ln γλ⌉ + tilings entries however large the
// feature space. Each step touches every trail entry once and each weight
// at most once, so sweeping the trail in any order gives results
// bit-identical to sweeping the dense table.
type LinearAgent struct {
	coder                      *TileCoder
	actions                    int
	features                   int
	alpha                      float64 // per-active-feature step size (already divided by tilings)
	gamma                      float64
	lambda                     float64 // eligibility decay; 0 = one-step
	epsStart, epsEnd, epsDecay float64

	weights  []float64 // [act*features + f]
	traceIdx []int     // trail keys (act*features + f); λ > 0 only
	traceVal []float64 // trail traces, parallel to traceIdx
	r        *rng.RNG

	// shared exploration-schedule table; nil means compute per call.
	epsCache *EpsilonCache

	steps int
	// lastTiles and nextTiles are two owned tile buffers swapped every
	// step, so Step never allocates. Neither aliases scratch, which Q and
	// Greedy reuse.
	lastTiles, nextTiles []int
	lastAct              int
	started              bool
	scratch              []int
}

// LinearConfig parameterises a LinearAgent.
type LinearConfig struct {
	Actions int
	// Alpha is the overall learning rate; it is divided by the number of
	// tilings internally so generalisation does not inflate updates.
	Alpha  float64
	Gamma  float64
	Lambda float64
	// Epsilon schedule as in Config.
	EpsilonStart float64
	EpsilonEnd   float64
	EpsilonDecay float64
}

// NewLinearAgent creates a linear agent over the given coder.
func NewLinearAgent(coder *TileCoder, cfg LinearConfig, r *rng.RNG) (*LinearAgent, error) {
	if coder == nil {
		return nil, fmt.Errorf("rl: nil tile coder")
	}
	if cfg.Actions <= 0 {
		return nil, fmt.Errorf("rl: Actions must be positive, got %d", cfg.Actions)
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("rl: Alpha must be in (0,1], got %g", cfg.Alpha)
	}
	if cfg.Gamma < 0 || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("rl: Gamma must be in [0,1), got %g", cfg.Gamma)
	}
	if cfg.Lambda < 0 || cfg.Lambda >= 1 {
		return nil, fmt.Errorf("rl: Lambda must be in [0,1), got %g", cfg.Lambda)
	}
	if cfg.EpsilonStart < 0 || cfg.EpsilonStart > 1 || cfg.EpsilonEnd < 0 ||
		cfg.EpsilonEnd > cfg.EpsilonStart || cfg.EpsilonDecay <= 0 || cfg.EpsilonDecay > 1 {
		return nil, fmt.Errorf("rl: invalid epsilon schedule (%g, %g, %g)",
			cfg.EpsilonStart, cfg.EpsilonEnd, cfg.EpsilonDecay)
	}
	if r == nil {
		return nil, fmt.Errorf("rl: nil rng")
	}
	tilings := coder.Tilings()
	a := &LinearAgent{
		coder:     coder,
		actions:   cfg.Actions,
		features:  coder.Features(),
		alpha:     cfg.Alpha / float64(tilings),
		gamma:     cfg.Gamma,
		lambda:    cfg.Lambda,
		epsStart:  cfg.EpsilonStart,
		epsEnd:    cfg.EpsilonEnd,
		epsDecay:  cfg.EpsilonDecay,
		r:         r,
		weights:   make([]float64, cfg.Actions*coder.Features()),
		lastTiles: make([]int, tilings),
		nextTiles: make([]int, tilings),
		scratch:   make([]int, tilings),
	}
	if cfg.Lambda > 0 {
		n := trailCap(tilings, cfg.Gamma*cfg.Lambda, len(a.weights))
		a.traceIdx = make([]int, 0, n)
		a.traceVal = make([]float64, 0, n)
	}
	return a, nil
}

// Q returns the approximate action value at continuous state x.
func (a *LinearAgent) Q(x []float64, act int) float64 {
	tiles := a.coder.ActiveTiles(x, a.scratch)
	return a.qTiles(tiles, act)
}

// trailCap sizes the trail: a trace set to 1 stays at or above 1e-8 for
// at most ⌈ln 1e-8 / ln decay⌉ decays and each step refreshes at most
// tilings pairs; one more step's worth covers the pairs a step appends
// before it compacts. The trail never outgrows the cells it keys into.
func trailCap(tilings int, decay float64, cells int) int {
	n := float64(tilings) * (math.Ceil(math.Log(1e-8)/math.Log(decay)) + 1)
	if n > float64(cells) {
		return cells
	}
	return int(n)
}

//odrl:hotpath
func (a *LinearAgent) qTiles(tiles []int, act int) float64 {
	w := a.weights[act*a.features : (act+1)*a.features]
	sum := 0.0
	for _, f := range tiles {
		sum += w[f]
	}
	return sum
}

// AttachEpsilonCache connects the agent to a shared schedule cache, with
// the same contract as Agent.AttachEpsilonCache: it reports false (and
// leaves the agent detached) if the cache's schedule differs.
func (a *LinearAgent) AttachEpsilonCache(ec *EpsilonCache) bool {
	if ec == nil || ec.start != a.epsStart || ec.end != a.epsEnd || ec.decay != a.epsDecay {
		return false
	}
	a.epsCache = ec
	return true
}

// Epsilon returns the current exploration rate.
func (a *LinearAgent) Epsilon() float64 {
	if eps, ok := a.epsCache.at(a.steps); ok {
		return eps
	}
	return a.epsEnd + (a.epsStart-a.epsEnd)*math.Pow(a.epsDecay, float64(a.steps))
}

//odrl:hotpath
func (a *LinearAgent) selectAction(tiles []int) int {
	if a.r.Float64() < a.Epsilon() {
		return a.r.Intn(a.actions)
	}
	best, bestV := 0, a.qTiles(tiles, 0)
	for act := 1; act < a.actions; act++ {
		if v := a.qTiles(tiles, act); v > bestV {
			best, bestV = act, v
		}
	}
	return best
}

// Begin starts an episode at state x and returns the first action.
func (a *LinearAgent) Begin(x []float64) int {
	tiles := a.coder.ActiveTiles(x, a.lastTiles)
	act := a.selectAction(tiles)
	a.lastTiles, a.lastAct = tiles, act
	a.started = true
	return act
}

// Step learns from the reward and returns the next action (SARSA target;
// on-policy is the stable choice under function approximation).
//
//odrl:hotpath
func (a *LinearAgent) Step(reward float64, x []float64) int {
	if !a.started {
		panic("rl: Step before Begin")
	}
	tiles := a.coder.ActiveTiles(x, a.nextTiles)
	nextAct := a.selectAction(tiles)

	delta := reward + a.gamma*a.qTiles(tiles, nextAct) - a.qTiles(a.lastTiles, a.lastAct)
	base := a.lastAct * a.features
	if a.lambda == 0 {
		for _, f := range a.lastTiles {
			a.weights[base+f] += a.alpha * delta
		}
	} else {
		a.refreshTraces(base)
		decay := a.gamma * a.lambda
		keep := 0
		for j, k := range a.traceIdx {
			e := a.traceVal[j]
			a.weights[k] += a.alpha * delta * e
			e *= decay
			if e < 1e-8 {
				continue
			}
			a.traceIdx[keep], a.traceVal[keep] = k, e
			keep++
		}
		a.traceIdx, a.traceVal = a.traceIdx[:keep], a.traceVal[:keep]
	}

	a.lastTiles, a.nextTiles = tiles, a.lastTiles
	a.lastAct = nextAct
	a.steps++
	return nextAct
}

// refreshTraces applies replacing traces for the last (state, action):
// each of its active pairs is set back to 1 in place if it is already in
// the trail, or appended otherwise.
//
//odrl:hotpath
func (a *LinearAgent) refreshTraces(base int) {
	for _, f := range a.lastTiles {
		k := base + f
		found := false
		for j, idx := range a.traceIdx {
			if idx == k {
				a.traceVal[j] = 1
				found = true
				break
			}
		}
		if !found {
			a.traceIdx = append(a.traceIdx, k)
			a.traceVal = append(a.traceVal, 1)
		}
	}
}

// Greedy returns the greedy action at x without exploring or learning.
func (a *LinearAgent) Greedy(x []float64) int {
	tiles := a.coder.ActiveTiles(x, a.scratch)
	best, bestV := 0, a.qTiles(tiles, 0)
	for act := 1; act < a.actions; act++ {
		if v := a.qTiles(tiles, act); v > bestV {
			best, bestV = act, v
		}
	}
	return best
}
