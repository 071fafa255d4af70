package rl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func testCoder(t *testing.T) *TileCoder {
	t.Helper()
	tc, err := NewTileCoder([]float64{0, 0}, []float64{1, 1}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func TestNewTileCoderValidation(t *testing.T) {
	cases := []struct {
		lows, highs []float64
		tiles, til  int
	}{
		{nil, nil, 8, 4},
		{[]float64{0}, []float64{0, 1}, 8, 4},
		{[]float64{0}, []float64{0}, 8, 4},
		{[]float64{1}, []float64{0}, 8, 4},
		{[]float64{0}, []float64{1}, 0, 4},
		{[]float64{0}, []float64{1}, 8, 0},
	}
	for i, c := range cases {
		if _, err := NewTileCoder(c.lows, c.highs, c.tiles, c.til); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestActiveTilesShape(t *testing.T) {
	tc := testCoder(t)
	tiles := tc.ActiveTiles([]float64{0.5, 0.5}, nil)
	if len(tiles) != 4 {
		t.Fatalf("got %d active tiles, want 4 (one per tiling)", len(tiles))
	}
	seen := map[int]bool{}
	for _, f := range tiles {
		if f < 0 || f >= tc.Features() {
			t.Fatalf("feature %d out of range [0,%d)", f, tc.Features())
		}
		if seen[f] {
			t.Fatal("duplicate active feature")
		}
		seen[f] = true
	}
}

func TestActiveTilesClampOutOfRange(t *testing.T) {
	tc := testCoder(t)
	lo := tc.ActiveTiles([]float64{-5, -5}, nil)
	lo2 := tc.ActiveTiles([]float64{0, 0}, nil)
	for i := range lo {
		if lo[i] != lo2[i] {
			t.Fatal("below-range state did not clamp to the low corner")
		}
	}
}

func TestActiveTilesLocality(t *testing.T) {
	// Nearby states share most tiles; distant states share none.
	tc := testCoder(t)
	a := append([]int(nil), tc.ActiveTiles([]float64{0.50, 0.50}, nil)...)
	b := append([]int(nil), tc.ActiveTiles([]float64{0.52, 0.52}, nil)...)
	c := append([]int(nil), tc.ActiveTiles([]float64{0.95, 0.05}, nil)...)
	shared := func(x, y []int) int {
		set := map[int]bool{}
		for _, v := range x {
			set[v] = true
		}
		n := 0
		for _, v := range y {
			if set[v] {
				n++
			}
		}
		return n
	}
	if shared(a, b) < 3 {
		t.Fatalf("nearby states share only %d/4 tiles", shared(a, b))
	}
	if shared(a, c) != 0 {
		t.Fatalf("distant states share %d tiles, want 0", shared(a, c))
	}
}

func TestActiveTilesPanicsOnWrongDims(t *testing.T) {
	tc := testCoder(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tc.ActiveTiles([]float64{0.5}, nil)
}

func TestNewLinearAgentValidation(t *testing.T) {
	tc := testCoder(t)
	good := LinearConfig{Actions: 3, Alpha: 0.1, Gamma: 0.9, EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999}
	if _, err := NewLinearAgent(tc, good, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	bad := []LinearConfig{
		{Actions: 0, Alpha: 0.1, Gamma: 0.9, EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999},
		{Actions: 3, Alpha: 0, Gamma: 0.9, EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999},
		{Actions: 3, Alpha: 0.1, Gamma: 1.0, EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999},
		{Actions: 3, Alpha: 0.1, Gamma: 0.9, Lambda: 1.0, EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999},
		{Actions: 3, Alpha: 0.1, Gamma: 0.9, EpsilonStart: 2, EpsilonEnd: 0.01, EpsilonDecay: 0.999},
	}
	for i, cfg := range bad {
		if _, err := NewLinearAgent(tc, cfg, rng.New(1)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewLinearAgent(nil, good, rng.New(1)); err == nil {
		t.Fatal("expected error for nil coder")
	}
	if _, err := NewLinearAgent(tc, good, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

// Continuous bandit: reward peaks when the action matches which half of
// the state space x lives in. The linear agent must learn the mapping.
func TestLinearAgentLearnsStateDependentPolicy(t *testing.T) {
	tc, err := NewTileCoder([]float64{0}, []float64{1}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinearConfig{
		Actions: 2, Alpha: 0.2, Gamma: 0.0,
		EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999,
	}
	a, err := NewLinearAgent(tc, cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	x := []float64{r.Float64()}
	act := a.Begin(x)
	for i := 0; i < 20000; i++ {
		want := 0
		if x[0] > 0.5 {
			want = 1
		}
		reward := 0.0
		if act == want {
			reward = 1.0
		}
		x = []float64{r.Float64()}
		act = a.Step(reward, x)
	}
	// Policy check across the state space.
	for _, v := range []float64{0.1, 0.3, 0.7, 0.9} {
		want := 0
		if v > 0.5 {
			want = 1
		}
		if got := a.Greedy([]float64{v}); got != want {
			t.Fatalf("state %v: greedy action %d, want %d", v, got, want)
		}
	}
}

// With eligibility traces the agent must still solve a delayed-reward
// chain over continuous states.
func TestLinearAgentTracesChain(t *testing.T) {
	tc, err := NewTileCoder([]float64{0}, []float64{1}, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinearConfig{
		Actions: 2, Alpha: 0.1, Gamma: 0.9, Lambda: 0.8,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.9995,
	}
	a, err := NewLinearAgent(tc, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// State is position in [0,1]; action 1 moves +0.25, action 0 moves
	// −0.25 (clamped); reward 1 on reaching the right end, then teleport.
	pos := 0.0
	act := a.Begin([]float64{pos})
	for i := 0; i < 40000; i++ {
		if act == 1 {
			pos += 0.25
		} else {
			pos -= 0.25
		}
		if pos < 0 {
			pos = 0
		}
		reward := 0.0
		if pos >= 0.99 {
			reward = 1
			pos = 0
		}
		act = a.Step(reward, []float64{pos})
	}
	for _, v := range []float64{0.0, 0.25, 0.5, 0.75} {
		if a.Greedy([]float64{v}) != 1 {
			t.Fatalf("state %v: greedy action %d, want 1 (right)", v, a.Greedy([]float64{v}))
		}
	}
}

func TestLinearAgentStepBeforeBeginPanics(t *testing.T) {
	tc := testCoder(t)
	a, _ := NewLinearAgent(tc, LinearConfig{
		Actions: 2, Alpha: 0.1, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999,
	}, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Step(1, []float64{0.5, 0.5})
}

// Property: Q starts at zero everywhere and active tile sets are stable
// (same state → same tiles).
func TestQuickTileCoderDeterministic(t *testing.T) {
	tc := testCoder(t)
	f := func(xr, yr uint16) bool {
		x := []float64{float64(xr) / 65535, float64(yr) / 65535}
		a := append([]int(nil), tc.ActiveTiles(x, nil)...)
		b := tc.ActiveTiles(x, nil)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearAgentQInitiallyZero(t *testing.T) {
	tc := testCoder(t)
	a, _ := NewLinearAgent(tc, LinearConfig{
		Actions: 2, Alpha: 0.1, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999,
	}, rng.New(1))
	if v := a.Q([]float64{0.3, 0.7}, 1); math.Abs(v) > 1e-12 {
		t.Fatalf("fresh Q = %v, want 0", v)
	}
}

// Property: weights stay finite under arbitrary bounded-reward streams —
// the alpha/tilings normalisation must keep linear SARSA stable.
func TestQuickLinearAgentStaysFinite(t *testing.T) {
	tc, err := NewTileCoder([]float64{0}, []float64{1}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, rewards []int8) bool {
		a, err := NewLinearAgent(tc, LinearConfig{
			Actions: 3, Alpha: 0.5, Gamma: 0.9, Lambda: 0.7,
			EpsilonStart: 0.3, EpsilonEnd: 0.05, EpsilonDecay: 0.999,
		}, rng.New(seed))
		if err != nil {
			return false
		}
		r := rng.New(seed + 1)
		a.Begin([]float64{r.Float64()})
		for _, rw := range rewards {
			a.Step(float64(rw)/128, []float64{r.Float64()})
		}
		for _, v := range []float64{0, 0.5, 1} {
			for act := 0; act < 3; act++ {
				q := a.Q([]float64{v}, act)
				if math.IsNaN(q) || math.IsInf(q, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Non-finite inputs clamp like out-of-range ones: NaN and −Inf to the low
// edge, +Inf to the high edge, never to garbage indices.
func TestActiveTilesNonFinite(t *testing.T) {
	tc := testCoder(t)
	nan, inf := math.NaN(), math.Inf(1)
	low := append([]int(nil), tc.ActiveTiles([]float64{0, 0.5}, nil)...)
	high := append([]int(nil), tc.ActiveTiles([]float64{1, 0.5}, nil)...)
	for _, c := range []struct {
		x    float64
		want []int
	}{{nan, low}, {-inf, low}, {inf, high}} {
		got := tc.ActiveTiles([]float64{c.x, 0.5}, nil)
		for i, f := range got {
			if f < 0 || f >= tc.Features() {
				t.Fatalf("x=%v: feature %d out of range [0,%d)", c.x, f, tc.Features())
			}
			if f != c.want[i] {
				t.Fatalf("x=%v: tiles %v, want %v", c.x, got, c.want)
			}
		}
	}

	// The exported agent no longer panics on a NaN observation.
	a, err := NewLinearAgent(tc, LinearConfig{
		Actions: 2, Alpha: 0.1, Gamma: 0.9, Lambda: 0.5,
		EpsilonStart: 0.5, EpsilonEnd: 0.01, EpsilonDecay: 0.999,
	}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	a.Begin([]float64{nan, nan})
	a.Step(1, []float64{inf, -inf})
	a.Step(1, []float64{nan, 0.5})
	if q := a.Q([]float64{nan, nan}, 0); math.IsNaN(q) {
		t.Fatal("Q went NaN")
	}
}

// denseLinearAgent is the reference for the oracle test below: the
// original LinearAgent update, which sweeps a dense actions × features
// trace table on every step.
type denseLinearAgent struct {
	coder     *TileCoder
	cfg       LinearConfig
	alpha     float64
	weights   [][]float64 // [action][feature]
	elig      [][]float64 // nil when λ = 0
	r         *rng.RNG
	steps     int
	lastTiles []int
	lastAct   int
}

func newDenseLinearAgent(coder *TileCoder, cfg LinearConfig, r *rng.RNG) *denseLinearAgent {
	d := &denseLinearAgent{coder: coder, cfg: cfg, alpha: cfg.Alpha / float64(coder.Tilings()), r: r}
	d.weights = make([][]float64, cfg.Actions)
	for i := range d.weights {
		d.weights[i] = make([]float64, coder.Features())
	}
	if cfg.Lambda > 0 {
		d.elig = make([][]float64, cfg.Actions)
		for i := range d.elig {
			d.elig[i] = make([]float64, coder.Features())
		}
	}
	return d
}

func (d *denseLinearAgent) q(tiles []int, act int) float64 {
	sum := 0.0
	for _, f := range tiles {
		sum += d.weights[act][f]
	}
	return sum
}

func (d *denseLinearAgent) selectAction(tiles []int) int {
	c := d.cfg
	eps := c.EpsilonEnd + (c.EpsilonStart-c.EpsilonEnd)*math.Pow(c.EpsilonDecay, float64(d.steps))
	if d.r.Float64() < eps {
		return d.r.Intn(c.Actions)
	}
	best, bestV := 0, d.q(tiles, 0)
	for act := 1; act < c.Actions; act++ {
		if v := d.q(tiles, act); v > bestV {
			best, bestV = act, v
		}
	}
	return best
}

func (d *denseLinearAgent) begin(x []float64) int {
	d.lastTiles = d.coder.ActiveTiles(x, nil)
	d.lastAct = d.selectAction(d.lastTiles)
	return d.lastAct
}

func (d *denseLinearAgent) step(reward float64, x []float64) int {
	tiles := d.coder.ActiveTiles(x, nil)
	nextAct := d.selectAction(tiles)
	delta := reward + d.cfg.Gamma*d.q(tiles, nextAct) - d.q(d.lastTiles, d.lastAct)
	if d.elig == nil {
		for _, f := range d.lastTiles {
			d.weights[d.lastAct][f] += d.alpha * delta
		}
	} else {
		for _, f := range d.lastTiles {
			d.elig[d.lastAct][f] = 1 // replacing traces
		}
		decay := d.cfg.Gamma * d.cfg.Lambda
		for act := range d.elig {
			for f, e := range d.elig[act] {
				if e == 0 {
					continue
				}
				d.weights[act][f] += d.alpha * delta * e
				e *= decay
				if e < 1e-8 {
					e = 0
				}
				d.elig[act][f] = e
			}
		}
	}
	d.lastTiles, d.lastAct = tiles, nextAct
	d.steps++
	return nextAct
}

// TestLinearAgentTrailMatchesDense is the oracle for the sparse trail:
// driven by the same seeded exploration stream, states and rewards, the
// production agent and the dense reference must pick the same action and
// hold bit-identical weights and traces after every step. States revisit
// a handful of points so traces get refreshed in place, and the runs are
// long enough that entries decay below 1e-8 and leave the trail.
func TestLinearAgentTrailMatchesDense(t *testing.T) {
	tc, err := NewTileCoder([]float64{0, 0}, []float64{1, 1}, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3000
	points := [][]float64{{0.1, 0.2}, {0.12, 0.21}, {0.5, 0.5}, {0.9, 0.1}, {0.3, 0.8}}
	for _, lambda := range []float64{0, 0.3, 0.7, 0.95} {
		cfg := LinearConfig{
			Actions: 3, Alpha: 0.3, Gamma: 0.9, Lambda: lambda,
			EpsilonStart: 0.5, EpsilonEnd: 0.05, EpsilonDecay: 0.999,
		}
		a, err := NewLinearAgent(tc, cfg, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		d := newDenseLinearAgent(tc, cfg, rng.New(7))
		maxTrail := 0
		if decay := cfg.Gamma * lambda; decay > 0 {
			maxTrail = tc.Tilings()*int(math.Ceil(math.Log(1e-8)/math.Log(decay))) + tc.Tilings()
		}

		env := rng.New(3)
		state := func() []float64 {
			if env.Float64() < 0.8 {
				return points[env.Intn(len(points))]
			}
			return []float64{env.Float64(), env.Float64()}
		}
		x := state()
		if got, want := a.Begin(x), d.begin(x); got != want {
			t.Fatalf("λ=%g: Begin action %d, want %d", lambda, got, want)
		}
		touched := map[int]bool{}
		for s := 0; s < steps; s++ {
			reward := 2*env.Float64() - 1
			x = state()
			if s == steps/2 {
				// A fresh episode keeps the traces, as the dense table did.
				if got, want := a.Begin(x), d.begin(x); got != want {
					t.Fatalf("λ=%g: re-Begin action %d, want %d", lambda, got, want)
				}
				continue
			}
			if got, want := a.Step(reward, x), d.step(reward, x); got != want {
				t.Fatalf("λ=%g step %d: action %d, want %d", lambda, s, got, want)
			}
			for act := range d.weights {
				for f, w := range d.weights[act] {
					if got := a.weights[act*a.features+f]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("λ=%g step %d: w[%d][%d] = %v, want %v", lambda, s, act, f, got, w)
					}
				}
			}
			if len(a.traceIdx) > maxTrail {
				t.Fatalf("λ=%g step %d: trail holds %d entries, bound %d", lambda, s, len(a.traceIdx), maxTrail)
			}
			if d.elig == nil {
				continue
			}
			nonZero := 0
			for act := range d.elig {
				for _, e := range d.elig[act] {
					if e != 0 {
						nonZero++
					}
				}
			}
			if nonZero != len(a.traceIdx) {
				t.Fatalf("λ=%g step %d: trail holds %d entries, dense table %d non-zero traces",
					lambda, s, len(a.traceIdx), nonZero)
			}
			for j, k := range a.traceIdx {
				touched[k] = true
				if e := d.elig[k/a.features][k%a.features]; math.Float64bits(a.traceVal[j]) != math.Float64bits(e) {
					t.Fatalf("λ=%g step %d: trace of key %d = %v, want %v", lambda, s, k, a.traceVal[j], e)
				}
			}
		}
		if lambda > 0 && len(touched) <= len(a.traceIdx) {
			t.Fatalf("λ=%g: no trace was ever evicted (%d touched, %d live)", lambda, len(touched), len(a.traceIdx))
		}
	}
}
