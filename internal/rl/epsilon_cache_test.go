package rl

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestEpsilonCacheBitEqual drives two identically-seeded agents — one
// attached to a properly warmed shared cache, one without — and requires
// identical epsilon values and identical action streams at every step.
func TestEpsilonCacheBitEqual(t *testing.T) {
	cfg := Config{
		States: 12, Actions: 4,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	cached, err := NewAgent(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewAgent(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ec := NewEpsilonCache(cfg.EpsilonStart, cfg.EpsilonEnd, cfg.EpsilonDecay)
	if !cached.AttachEpsilonCache(ec) {
		t.Fatal("matching cache refused")
	}

	ec.WarmAt(0)
	if a, b := cached.Begin(0), plain.Begin(0); a != b {
		t.Fatalf("Begin diverged: %d vs %d", a, b)
	}
	st := rng.New(5)
	for step := 0; step < 400; step++ {
		ec.WarmAt(step) // the lockstep count selectAction sees this step
		s := st.Intn(cfg.States)
		r := st.Float64()
		if ce, pe := cached.Epsilon(), plain.Epsilon(); ce != pe ||
			math.Float64bits(ce) != math.Float64bits(pe) {
			t.Fatalf("step %d: epsilon diverged: %v vs %v", step, ce, pe)
		}
		if a, b := cached.Step(r, s), plain.Step(r, s); a != b {
			t.Fatalf("step %d: action diverged: %d vs %d", step, a, b)
		}
	}
}

// TestEpsilonCacheMissComputesInline: an agent that fell out of lockstep
// (cache warmed for a different step count) must compute its own epsilon,
// bit-equal to the schedule, and must not write to the shared cache.
func TestEpsilonCacheMissComputesInline(t *testing.T) {
	cfg := Config{
		States: 4, Actions: 3,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	a, err := NewAgent(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ec := NewEpsilonCache(cfg.EpsilonStart, cfg.EpsilonEnd, cfg.EpsilonDecay)
	a.AttachEpsilonCache(ec)
	ec.WarmAt(1000) // agent is at step 0: guaranteed miss
	want := cfg.EpsilonEnd + (cfg.EpsilonStart-cfg.EpsilonEnd)*math.Pow(cfg.EpsilonDecay, 0)
	if got := a.Epsilon(); got != want {
		t.Fatalf("miss path: got %v want %v", got, want)
	}
	if ec.step != 1000 {
		t.Fatalf("miss path wrote to the shared cache: step %d", ec.step)
	}
}

// TestEpsilonCacheRejectsMismatch: attaching a cache for a different
// schedule must be refused, leaving the agent computing inline.
func TestEpsilonCacheRejectsMismatch(t *testing.T) {
	cfg := Config{
		States: 4, Actions: 3,
		Alpha: 0.2, Gamma: 0.9,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	a, err := NewAgent(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if a.AttachEpsilonCache(NewEpsilonCache(0.9, 0.02, 0.999)) {
		t.Fatal("mismatched cache accepted")
	}
	if a.epsCache != nil {
		t.Fatal("agent attached to mismatched cache")
	}
}

// TestLinearEpsilonCache: a linear agent on a warmed shared cache must see
// bit-equal epsilons and pick the same actions as an uncached twin; a
// lockstep miss computes inline, and a mismatched schedule is refused.
func TestLinearEpsilonCache(t *testing.T) {
	tc, err := NewTileCoder([]float64{0}, []float64{1}, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinearConfig{
		Actions: 3, Alpha: 0.2, Gamma: 0.9, Lambda: 0.7,
		EpsilonStart: 0.5, EpsilonEnd: 0.02, EpsilonDecay: 0.999,
	}
	cached, err := NewLinearAgent(tc, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewLinearAgent(tc, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if cached.AttachEpsilonCache(NewEpsilonCache(0.9, 0.02, 0.999)) || cached.epsCache != nil {
		t.Fatal("mismatched cache accepted")
	}
	ec := NewEpsilonCache(cfg.EpsilonStart, cfg.EpsilonEnd, cfg.EpsilonDecay)
	if !cached.AttachEpsilonCache(ec) {
		t.Fatal("matching cache refused")
	}

	ec.WarmAt(1000) // agent is at step 0: guaranteed miss
	want := cfg.EpsilonEnd + (cfg.EpsilonStart-cfg.EpsilonEnd)*math.Pow(cfg.EpsilonDecay, 0)
	if got := cached.Epsilon(); got != want {
		t.Fatalf("miss path: got %v want %v", got, want)
	}

	ec.WarmAt(0)
	st := rng.New(5)
	x := []float64{st.Float64()}
	if a, b := cached.Begin(x), plain.Begin(x); a != b {
		t.Fatalf("Begin diverged: %d vs %d", a, b)
	}
	for step := 0; step < 400; step++ {
		ec.WarmAt(step)
		x[0] = st.Float64()
		r := st.Float64()
		if ce, pe := cached.Epsilon(), plain.Epsilon(); math.Float64bits(ce) != math.Float64bits(pe) {
			t.Fatalf("step %d: epsilon diverged: %v vs %v", step, ce, pe)
		}
		if a, b := cached.Step(r, x), plain.Step(r, x); a != b {
			t.Fatalf("step %d: action diverged: %d vs %d", step, a, b)
		}
	}
	ec.WarmAt(cached.steps)
	ec.val = 0.123 // poison: an exact-step hit must be served from the cache
	if got := cached.Epsilon(); got != 0.123 {
		t.Fatalf("exact-step hit computed inline: %v", got)
	}
}
