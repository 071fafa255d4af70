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

// scheduleEps is the exploration schedule as Agent.Epsilon computes it.
func scheduleEps(cfg Config, steps int) float64 {
	return cfg.EpsilonEnd + (cfg.EpsilonStart-cfg.EpsilonEnd)*math.Pow(cfg.EpsilonDecay, float64(steps))
}

// TestEpsilonCacheLaggingAgentReadsTable: an agent behind the warmed step
// count (held by a watchdog, or restarted) is served from the table, and
// every table entry is bit-equal to the inline math.Pow expression.
func TestEpsilonCacheLaggingAgentReadsTable(t *testing.T) {
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
	if !a.AttachEpsilonCache(ec) {
		t.Fatal("matching cache refused")
	}
	ec.WarmAt(1000)
	if len(ec.vals) != 1002 {
		t.Fatalf("WarmAt(1000) holds %d entries, want 1002 (steps 0…1001)", len(ec.vals))
	}
	for s, v := range ec.vals {
		if math.Float64bits(v) != math.Float64bits(scheduleEps(cfg, s)) {
			t.Fatalf("entry %d = %v, want %v", s, v, scheduleEps(cfg, s))
		}
	}
	ec.WarmAt(10) // a lower warm never shrinks the table
	if len(ec.vals) != 1002 {
		t.Fatalf("WarmAt(10) after WarmAt(1000) left %d entries", len(ec.vals))
	}
	st := rng.New(5)
	a.Begin(0)
	for step := 0; step < 40; step++ {
		if got, want := a.Epsilon(), scheduleEps(cfg, a.steps); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: lagging agent epsilon %v, want %v", a.steps, got, want)
		}
		a.Step(st.Float64(), st.Intn(cfg.States))
	}
	saved := ec.vals[a.steps]
	ec.vals[a.steps] = 0.123 // poison: a lagging agent must read its own entry
	if got := a.Epsilon(); got != 0.123 {
		t.Fatalf("lagging agent at step %d computed inline: %v", a.steps, got)
	}
	ec.vals[a.steps] = saved
}

// TestEpsilonCacheMissComputesInline: an agent ahead of the table computes
// its own epsilon, bit-equal to the schedule, and never grows the shared
// table — only WarmAt writes.
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
	if got, want := a.Epsilon(), scheduleEps(cfg, 0); got != want {
		t.Fatalf("cold table: got %v want %v", got, want)
	}
	if len(ec.vals) != 0 {
		t.Fatalf("a read grew the cold table to %d entries", len(ec.vals))
	}
	ec.WarmAt(0)
	st := rng.New(5)
	a.Begin(0)
	for step := 0; step < 10; step++ {
		a.Step(st.Float64(), st.Intn(cfg.States))
	}
	if got, want := a.Epsilon(), scheduleEps(cfg, a.steps); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ahead of the table at step %d: got %v want %v", a.steps, got, want)
	}
	if len(ec.vals) != 2 {
		t.Fatalf("an agent ahead of the table grew it to %d entries, want 2", len(ec.vals))
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

// TestLinearEpsilonCache: a linear agent on a warmed shared table must see
// bit-equal epsilons and pick the same actions as an uncached twin; a
// lagging agent reads the table, one ahead of it computes inline without
// growing it, and a mismatched schedule is refused.
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

	want := func(steps int) float64 {
		return cfg.EpsilonEnd + (cfg.EpsilonStart-cfg.EpsilonEnd)*math.Pow(cfg.EpsilonDecay, float64(steps))
	}
	if got := cached.Epsilon(); got != want(0) || len(ec.vals) != 0 {
		t.Fatalf("cold table: got %v want %v, table grew to %d", got, want(0), len(ec.vals))
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
	// The post-step read is served from the table WarmAt extended.
	if len(ec.vals) != cached.steps+1 {
		t.Fatalf("table holds %d entries after %d steps, want %d", len(ec.vals), cached.steps, cached.steps+1)
	}
	saved := ec.vals[cached.steps]
	ec.vals[cached.steps] = 0.123 // poison: a table hit must be served from the table
	if got := cached.Epsilon(); got != 0.123 {
		t.Fatalf("table hit computed inline: %v", got)
	}
	ec.vals[cached.steps] = saved

	// A lagging agent reads the table; one ahead of it computes inline and
	// leaves it unchanged.
	lag, err := NewLinearAgent(tc, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	lag.AttachEpsilonCache(ec)
	lag.Begin(x)
	lag.Step(0.5, x)
	saved = ec.vals[lag.steps]
	ec.vals[lag.steps] = 0.456
	if got := lag.Epsilon(); got != 0.456 {
		t.Fatalf("lagging agent at step %d computed inline: %v", lag.steps, got)
	}
	ec.vals[lag.steps] = saved
	n := len(ec.vals)
	cached.Step(0.5, x)
	if got := cached.Epsilon(); math.Float64bits(got) != math.Float64bits(want(cached.steps)) || len(ec.vals) != n {
		t.Fatalf("ahead of the table: got %v want %v, table %d → %d entries", got, want(cached.steps), n, len(ec.vals))
	}
}
