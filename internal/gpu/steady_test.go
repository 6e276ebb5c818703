package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"gles2gpgpu/internal/device"
	"gles2gpgpu/internal/timing"
)

// bodyOp is one machine call of a generated iteration body. Resources are
// slots whose ResID a realloc op replaces, the way CopyTexImage2D frees and
// re-registers its texture on every call.
type bodyOp struct {
	kind    int // opDraw...opVsync
	a, b    int // resource slots
	n       int // bytes, or covered pixels of a draw
	flag    bool
	cycles  int64
	when    int // runEven, runOdd, runAlways or runFirst
	extraNs int64
}

const (
	opDraw = iota
	opCopy
	opUpload
	opClear
	opWaitAll
	opReadback
	opRealloc
	opVsync
	numOps
)

// When a body op runs: in even or odd iterations only (like a ping-pong
// runner), in every one, or in the first alone (like a runner's set-up).
const (
	runEven = iota
	runOdd
	runAlways
	runFirst
)

func (op bodyOp) runsIn(iter int) bool {
	switch op.when {
	case runAlways:
		return true
	case runFirst:
		return iter == 1
	}
	return iter%2 == op.when
}

const bodySlots = 4

// randomBody generates a body of up to 12 calls, half of them run in every
// iteration. Half the bodies never drain the pipeline, so frames, copies
// and uploads stay in flight across iteration boundaries.
func randomBody(rng *rand.Rand) []bodyOp {
	kinds := numOps
	if rng.Intn(2) == 0 {
		kinds = opWaitAll // draw, copy, upload and clear only
	}
	body := make([]bodyOp, 1+rng.Intn(12))
	for i := range body {
		body[i] = bodyOp{
			kind:    rng.Intn(kinds),
			a:       rng.Intn(bodySlots),
			b:       rng.Intn(bodySlots),
			n:       1 << (10 + rng.Intn(13)),
			flag:    rng.Intn(2) == 0,
			cycles:  rng.Int63n(20_000_000),
			when:    rng.Intn(6),
			extraNs: rng.Int63n(50_000),
		}
		if body[i].when > runFirst {
			body[i].when = runAlways
		}
	}
	return body
}

// bodyRun replays a body on one machine, tracking the slots' current ids.
type bodyRun struct {
	m   *Machine
	ids [bodySlots]ResID
}

func newBodyRun(m *Machine) *bodyRun {
	r := &bodyRun{m: m}
	for i := range r.ids {
		r.ids[i] = m.NewResource(fmt.Sprintf("slot%d", i))
	}
	return r
}

func (r *bodyRun) iterate(body []bodyOp, iter int) {
	m := r.m
	for _, op := range body {
		if !op.runsIn(iter) {
			continue
		}
		a, b := r.ids[op.a], r.ids[op.b]
		switch op.kind {
		case opDraw:
			side := 1 << (op.n % 11)
			job := DrawJob{
				Target: a, TargetW: side, TargetH: side,
				CoveredPixels: int64(side * side), FragCycles: op.cycles,
				TexFetches: int64(side * side), VertexCount: 6,
				ExtraCPUCost: timing.Time(op.extraNs) * timing.Nanosecond,
			}
			if op.flag {
				job.Reads = []ResID{b}
			}
			m.Draw(job)
		case opCopy:
			m.Copy(a, b, op.n, op.flag)
		case opUpload:
			m.Upload(a, op.n, op.flag)
		case opClear:
			m.Clear(a)
		case opWaitAll:
			m.WaitAll()
		case opReadback:
			m.Readback(a, op.n)
		case opRealloc:
			m.FreeResource(a)
			r.ids[op.a] = m.NewResource(fmt.Sprintf("slot%d", op.a))
			m.AllocCost(timing.Time(op.extraNs) * timing.Nanosecond)
		case opVsync:
			m.CPU.AdvanceTo(m.VSyncClock.NextTick(m.CPU.Now()))
		}
	}
}

type bodyOutcome struct {
	now, fpBusy, copyBusy timing.Time
	stats                 Stats
	jobs                  int64 // the id of the last fragment job
	skipped               bool
}

// replayBody runs total iterations of body, then drains the machine. With
// extrapolate it skips whole two-iteration periods once the boundary after
// iteration j repeats the one after j-2, as bench.Measure does.
func replayBody(t *testing.T, prof *device.Profile, body []bodyOp, total int, extrapolate bool) bodyOutcome {
	t.Helper()
	m := New(prof)
	run := newBodyRun(m)
	vsync := waitsOnVsync(body)
	var out bodyOutcome
	var snaps []Snapshot // snaps[i]: the boundary after iteration i+1
	for j := 1; j <= total; j++ {
		run.iterate(body, j)
		if !extrapolate || out.skipped {
			continue
		}
		snaps = append(snaps, m.Snapshot(vsync))
		if j < 3 || !snaps[j-1].Repeats(snaps[j-3]) {
			continue
		}
		k := (total - j) / 2
		if err := m.Shift(int64(k), snaps[j-3], snaps[j-1]); err != nil {
			t.Fatal(err)
		}
		j += 2 * k
		out.skipped = true
	}
	m.WaitAll()
	out.now, out.fpBusy, out.copyBusy, out.stats, out.jobs = m.Now(), m.FPBusy(), m.CopyBusy(), m.Stats, m.jobCounter
	return out
}

func waitsOnVsync(body []bodyOp) bool {
	for _, op := range body {
		if op.kind == opVsync {
			return true
		}
	}
	return false
}

// steadyProfiles are both device profiles and the ablation-perturbed
// variants of each: no deferred overlap, no copy streaming into live
// storage, and queue depths below, between and beyond the trim.
func steadyProfiles() map[string]*device.Profile {
	out := map[string]*device.Profile{}
	for _, base := range []*device.Profile{device.PowerVRSGX545(), device.VideoCoreIV()} {
		perturb := map[string]func(*device.Profile){
			"":              func(*device.Profile) {},
			"/non-deferred": func(p *device.Profile) { p.Deferred = false },
			"/no-streaming": func(p *device.Profile) { p.CopyStreamsOnOverwrite = false },
			"/queue1":       func(p *device.Profile) { p.QueueDepth = 1 },
			"/queue5":       func(p *device.Profile) { p.QueueDepth = 5 },
			"/queue12":      func(p *device.Profile) { p.QueueDepth = 12 },
		}
		for name, f := range perturb {
			p := *base
			f(&p)
			out[base.Name+name] = &p
		}
	}
	return out
}

// TestExtrapolationMatchesFullReplay is the steady-state property test:
// for random iteration bodies on every profile, skipping proven periods
// ends in exactly the state the full replay reaches.
func TestExtrapolationMatchesFullReplay(t *testing.T) {
	const bodies, total = 150, 40
	for name, prof := range steadyProfiles() {
		rng := rand.New(rand.NewSource(1))
		skipped := 0
		for i := 0; i < bodies; i++ {
			body := randomBody(rng)
			full := replayBody(t, prof, body, total, false)
			fast := replayBody(t, prof, body, total, true)
			if fast.skipped {
				skipped++
			}
			fast.skipped = false
			if fast != full {
				t.Fatalf("%s body %d %+v:\nextrapolated %+v\nfull replay  %+v", name, i, body, fast, full)
			}
		}
		// Many bodies settle, so the test exercises the skip, not only the
		// fallback. (Beyond the trim depth, an undrained queue grows and
		// never repeats.)
		if skipped < bodies/4 {
			t.Errorf("%s: only %d of %d bodies reached a proven steady state", name, skipped, bodies)
		}
	}
}

// TestRepeatingSnapshotsShareTheirFuture checks the fingerprint's
// defining property head-on: two states whose snapshots repeat each other
// evolve identically under the same calls, offset in time. The twins run
// one random prologue, each followed by its own few random calls, and then
// idle for different delays, which ages every past time of one against the
// other across each saturation floor.
func TestRepeatingSnapshotsShareTheirFuture(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, prof := range steadyProfiles() {
		lat, flush := prof.CopyEngine.Latency, prof.FlushCost
		delays := []timing.Time{0, 1, lat / 2, lat, lat + 1, flush / 2, flush, flush + 1, timing.Millisecond, 40 * timing.Millisecond, timing.Second, 2 * timing.Second}
		distinct := 0
		for i := 0; i < 600; i++ {
			prologue, next := randomBody(rng), randomBody(rng)
			extra1, extra2 := randomBody(rng)[:rng.Intn(2)], randomBody(rng)[:rng.Intn(2)]
			vsync := waitsOnVsync(prologue) || waitsOnVsync(next) || waitsOnVsync(extra1) || waitsOnVsync(extra2)
			d1, d2 := delays[rng.Intn(len(delays))], delays[rng.Intn(len(delays))]
			twin := func(extra []bodyOp, d timing.Time) (*bodyRun, Snapshot) {
				run := newBodyRun(New(prof))
				run.iterate(prologue, 1)
				run.iterate(extra, 1)
				run.m.CPU.Advance(d)
				return run, run.m.Snapshot(vsync)
			}
			r1, s1 := twin(extra1, d1)
			r2, s2 := twin(extra2, d2)
			if !s1.Repeats(s2) {
				continue
			}
			if d1 != d2 || len(extra1)+len(extra2) > 0 {
				distinct++
			}
			for _, r := range []*bodyRun{r1, r2} {
				r.iterate(next, 2)
				r.m.WaitAll()
			}
			// What each twin adds past its snapshot must match.
			m1, m2 := r1.m, r2.m
			if m1.Now()-s1.Now() != m2.Now()-s2.Now() ||
				m1.Stats.plus(1, s1.stats, Stats{}) != m2.Stats.plus(1, s2.stats, Stats{}) ||
				m1.FPBusy()-s1.busy[1] != m2.FPBusy()-s2.busy[1] ||
				m1.CopyBusy()-s1.busy[2] != m2.CopyBusy()-s2.busy[2] {
				t.Fatalf("%s case %d: snapshots after prologue %+v, %+v/%+v and %v/%v idle repeat, but %+v then takes %v and %v",
					name, i, prologue, extra1, extra2, d1, d2, next, m1.Now()-s1.Now(), m2.Now()-s2.Now())
			}
		}
		if distinct < 20 {
			t.Errorf("%s: only %d twin pairs with different histories repeated", name, distinct)
		}
	}
}

// TestNeverRepeatingStateReplaysInFull: a body whose upload backlog grows
// every iteration never repeats its fingerprint, so nothing is skipped.
func TestNeverRepeatingStateReplaysInFull(t *testing.T) {
	// VideoCore uploads asynchronously: the CPU queues 64 MiB per iteration
	// but waits for none of it.
	body := []bodyOp{
		{kind: opUpload, a: 0, n: 64 << 20, when: runAlways},
		{kind: opClear, a: 1, when: runAlways},
		{kind: opDraw, a: 1, n: 8, cycles: 1000, when: runAlways},
	}
	prof := device.VideoCoreIV()
	full := replayBody(t, prof, body, 30, false)
	fast := replayBody(t, prof, body, 30, true)
	if fast.skipped {
		t.Fatal("a growing upload backlog was extrapolated")
	}
	if fast != full {
		t.Fatalf("fallback diverged: %+v vs %+v", fast, full)
	}
}

// TestShiftRefusals covers the states Shift must not extrapolate from.
func TestShiftRefusals(t *testing.T) {
	m := New(testProfile())
	tgt := m.NewResource("fb")
	iterate := func() {
		m.Clear(tgt)
		m.Draw(drawJob(tgt))
		m.WaitAll()
	}
	iterate()
	from := m.Snapshot(false)
	iterate()
	to := m.Snapshot(false)
	if !from.Repeats(to) {
		t.Fatal("a drained clear+draw iteration does not repeat")
	}
	if err := m.Shift(-1, from, to); err == nil {
		t.Error("negative shift accepted")
	}
	if err := m.Shift(3, to, from); err == nil {
		t.Error("backwards shift accepted")
	}
	m.Trace.Enable(true)
	if err := m.Shift(3, from, to); err == nil {
		t.Error("shift of a traced machine accepted")
	}
	m.Trace.Enable(false)
	iterate()
	if err := m.Shift(3, from, to); err == nil {
		t.Error("shift from a stale snapshot accepted")
	}
	// Two resources under one label cannot be told apart.
	m.NewResource("fb")
	if s := m.Snapshot(false); s.Repeats(s) {
		t.Error("a fingerprint with duplicate labels repeats")
	}
}

// TestFingerprintSeparatesDivergingStates pins the fields whose past
// values still steer the future: each case builds two states that differ
// in one field alone (blinding it makes their snapshots repeat) and whose
// futures differ, so their snapshots must not repeat each other.
func TestFingerprintSeparatesDivergingStates(t *testing.T) {
	queue := func(depth int) *device.Profile {
		p := testProfile()
		p.QueueDepth = depth
		return p
	}
	// draw renders a fresh cleared target with no vertex work, so only the
	// fragment stage leaves state behind.
	draw := func(m *Machine, label string, cycles int64, reads ...ResID) ResID {
		id := m.NewResource(label)
		m.Clear(id)
		job := drawJob(id, reads...)
		job.FragCycles, job.VertexCount = cycles, 0
		m.Draw(job)
		return id
	}
	// frames renders two frames of the given lengths and forgets both
	// targets: only the queue and the engines remember them.
	frames := func(first, second int64) func(*Machine) {
		return func(m *Machine) {
			m.FreeResource(draw(m, "a", first))
			m.FreeResource(draw(m, "b", second))
		}
	}
	// settled submits n frames to one target and idles until all are done.
	settled := func(n int) func(*Machine) {
		return func(m *Machine) {
			tgt := m.NewResource("t")
			for i := 0; i < n; i++ {
				m.Clear(tgt)
				m.Draw(drawJob(tgt))
			}
			m.CPU.Advance(timing.Second)
		}
	}
	cases := []struct {
		name           string
		prof           *device.Profile
		setup1, setup2 func(m *Machine)
		next           func(m *Machine)
		blind          func(f *fingerprint)
	}{
		{
			name: "upload engine busy behind a freed texture",
			prof: device.VideoCoreIV(),
			setup1: func(m *Machine) {
				x := m.NewResource("x")
				m.Upload(x, 64<<20, false)
				m.FreeResource(x)
			},
			setup2: func(m *Machine) { m.CPU.Advance(m.Prof.UploadIssueCost) },
			next:   func(m *Machine) { m.WaitAll() },
			blind:  func(f *fingerprint) { f.engines = [4]timing.Time{} },
		},
		{
			name: "in-flight reader of a texture",
			prof: testProfile(),
			setup1: func(m *Machine) {
				draw(m, "fb", 1_000_000, m.NewResource("x"))
			},
			setup2: func(m *Machine) {
				m.NewResource("x")
				draw(m, "fb", 1_000_000)
			},
			// x is the first resource either setup registers.
			next: func(m *Machine) { m.Upload(1, 1<<10, true) },
			blind: func(f *fingerprint) {
				for i := range f.res {
					f.res[i].lastRead = 0
				}
			},
		},
		{
			name:   "older frame in the submission queue",
			prof:   queue(2),
			setup1: frames(4_000_000, 2_000_000),
			setup2: frames(1_000_000, 5_000_000),
			next:   func(m *Machine) { draw(m, "c", 1_000) },
			blind:  func(f *fingerprint) { f.queued = nil },
		},
		{
			name:   "in-flight count beyond the trimmed length",
			prof:   queue(outstandingKeep + 4),
			setup1: settled(20),
			setup2: settled(22),
			// 44 more frames trim the second queue (22+43 > outstandingCap)
			// but not the first, whose last frame still waits.
			next: func(m *Machine) {
				for i := 0; i < 44; i++ {
					m.Clear(1)
					m.Draw(drawJob(1))
				}
			},
			blind: func(f *fingerprint) { f.queueLen = 0 },
		},
		{
			name: "start of the render a copy streams behind",
			prof: queue(0),
			setup1: func(m *Machine) {
				m.FreeResource(draw(m, "z", 4_000_000))
				draw(m, "s", 2_000_000)
			},
			setup2: func(m *Machine) {
				m.FreeResource(draw(m, "z", 1_000_000))
				draw(m, "s", 5_000_000)
			},
			next: func(m *Machine) {
				m.Copy(2, m.NewResource("d"), 3<<20, false)
				m.WaitAll()
			},
			blind: func(f *fingerprint) {
				for i := range f.res {
					f.res[i].writerFPStart = 0
				}
			},
		},
	}
	for _, c := range cases {
		m1, m2 := New(c.prof), New(c.prof)
		c.setup1(m1)
		c.setup2(m2)
		s1, s2 := m1.Snapshot(false), m2.Snapshot(false)
		c.next(m1)
		c.next(m2)
		if m1.Now()-s1.Now() == m2.Now()-s2.Now() {
			t.Errorf("%s: the futures do not differ; the case tests nothing", c.name)
		}
		if s1.Repeats(s2) {
			t.Errorf("%s: snapshots of diverging states repeat each other", c.name)
		}
		c.blind(&s1.print)
		c.blind(&s2.print)
		if !s1.Repeats(s2) {
			t.Errorf("%s: the states differ in more than the field under test", c.name)
		}
	}
}
