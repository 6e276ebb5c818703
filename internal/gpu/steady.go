package gpu

import (
	"errors"
	"slices"
	"strings"

	"gles2gpgpu/internal/timing"
)

// Steady-state extrapolation. A benchmark body replayed many times drives
// the machine into a steady state: each iteration adds the same virtual
// time and the same Stats. Snapshot captures everything that can shape
// future scheduling as a fingerprint relative to Now; when two iteration
// boundaries hold equal fingerprints, every later period repeats the one
// between them, and Shift jumps over whole periods in one step.
//
// Why equal fingerprints imply repetition: every decision in this package
// compares or maxes times against each other, never against an absolute
// origin, except the vsync tick grid, whose phase is in the fingerprint
// whenever a caller waits on it. Shifting all times by the same amount
// therefore shifts the whole future by that amount. Job ids only ever
// meet in the equality writerJob == lastFPJob, which a uniform shift of
// ids preserves.

// Snapshot is the machine state at an iteration boundary: the absolute
// counters that Shift advances, plus the fingerprint that Repeats compares.
type Snapshot struct {
	now   timing.Time
	jobs  int64
	stats Stats
	busy  [4]timing.Time // busy totals of the engines, in engines() order
	tasks [4]int64       // task counts of the engines
	print fingerprint
}

// fingerprint is every timing-relevant field of the machine, relative to
// Now. Past times saturate (see Snapshot), so states that differ only in
// history no consumer can still distinguish compare equal.
type fingerprint struct {
	phase     timing.Time    // Now modulo the vsync period, when vsync paces the caller
	engines   [4]timing.Time // busy-until of vp, fp, copy and upload
	lastFPEnd timing.Time
	queued    []timing.Time // the last QueueDepth in-flight frame ends
	queueLen  int           // exact in-flight count, when a trim can drop it below QueueDepth
	res       []resPrint    // sorted by label
	ambiguous bool          // two resources share a label: owners cannot be matched
}

// resPrint is one resource's fingerprint, keyed by its owner's label rather
// than its ResID: CopyTexImage2D frees and re-registers its texture on
// every call, so ids change from one iteration to the next while the owner
// stays the same.
type resPrint struct {
	label         string
	readyAt       timing.Time
	lastRead      timing.Time
	writerFPStart timing.Time
	lastFPWriter  bool // written by the last fragment job
	cleared       bool
}

func (m *Machine) engines() [4]*timing.Resource {
	return [4]*timing.Resource{m.vp, m.fp, m.copyEng.Timeline(), m.upEng.Timeline()}
}

// Snapshot captures the machine at the current CPU time. vsync reports
// whether the caller's later calls may wait on VSyncClock ticks (a window
// surface presenting at a positive swap interval); only then does the tick
// phase, Now modulo the period, shape the future and enter the fingerprint.
//
// A time t in the past saturates at the oldest value any consumer can
// still tell apart from older ones. Each consumer in this package, and the
// vertex-readiness max that internal/gles takes over ReadyAt, compares its
// operand against a time that is at least Now, because the CPU clock never
// moves backwards and every scheduling start is bounded below by it:
//
//   - busy-until, lastRead, writerFPStart and the in-flight frame ends only
//     enter Max or a strict comparison against such a time, so they
//     saturate at Now;
//   - readyAt enters those too, and Copy's test earliest+dur <
//     readyAt+Latency, whose left side is at least Now: any readyAt at or
//     below Now−CopyEngine.Latency fails it whatever the transfer time, so
//     readyAt saturates there;
//   - lastFPEnd enters the bubble flush lastFPEnd+FlushCost, compared the
//     same way, so it saturates at Now−FlushCost. Saturating it at Now
//     would merge states whose next bubble flushes at different times.
func (m *Machine) Snapshot(vsync bool) Snapshot {
	now := m.CPU.Now()
	rel := func(t, floor timing.Time) timing.Time { return timing.Max(t, floor) - now }
	s := Snapshot{now: now, jobs: m.jobCounter, stats: m.Stats}
	f := &s.print
	for i, e := range m.engines() {
		s.busy[i], s.tasks[i] = e.BusyTotal(), e.Jobs()
		f.engines[i] = rel(e.FreeAt(), now)
	}
	if p := m.VSyncClock.Period(); vsync && p > 0 {
		f.phase = now % p
	}
	f.lastFPEnd = rel(m.lastFPEnd, now-m.Prof.FlushCost)
	if d := m.Prof.QueueDepth; d > 0 {
		// Draw waits on the frame QueueDepth back, once that many are in
		// flight; a trim keeps the last outstandingKeep, so beyond that depth
		// the exact count decides when the wait resumes.
		n := min(len(m.outstanding), d)
		for _, t := range m.outstanding[len(m.outstanding)-n:] {
			f.queued = append(f.queued, rel(t, now))
		}
		if d > outstandingKeep {
			f.queueLen = len(m.outstanding)
		}
	}
	latency := m.Prof.CopyEngine.Latency
	f.res = make([]resPrint, 0, len(m.resources))
	for _, r := range m.resources {
		f.res = append(f.res, resPrint{
			label:         r.label,
			readyAt:       rel(r.readyAt, now-latency),
			lastRead:      rel(r.lastRead, now),
			writerFPStart: rel(r.writerFPStart, now),
			// Job ids only grow, so a writer other than the last fragment
			// job can never again equal lastFPJob: the age of an older
			// writer is invisible to Draw.
			lastFPWriter: r.writerJob != 0 && r.writerJob == m.lastFPJob,
			cleared:      r.cleared,
		})
	}
	slices.SortFunc(f.res, func(a, b resPrint) int { return strings.Compare(a.label, b.label) })
	for i := 1; i < len(f.res); i++ {
		if f.res[i].label == f.res[i-1].label {
			f.ambiguous = true
		}
	}
	return s
}

// Now is the CPU time at which the snapshot was taken.
func (s Snapshot) Now() timing.Time { return s.now }

// Repeats reports whether s and o hold the same fingerprint: from either
// state, the same sequence of calls schedules identically, offset by the
// difference of their Now. Snapshots of different machines never repeat
// each other meaningfully; callers compare boundaries of one machine.
func (s Snapshot) Repeats(o Snapshot) bool {
	a, b := &s.print, &o.print
	return !a.ambiguous && !b.ambiguous &&
		a.phase == b.phase && a.engines == b.engines && a.lastFPEnd == b.lastFPEnd &&
		a.queueLen == b.queueLen && slices.Equal(a.queued, b.queued) && slices.Equal(a.res, b.res)
}

// Shift advances the machine, which must be in state to, by k periods of
// the difference between from and to: every absolute time, job id, Stats
// field and busy total moves as if the calls between from and to had been
// issued k more times. The caller must know that those calls repeat, and
// from.Repeats(to) must hold. Shift refuses a traced machine, whose trace
// would silently miss the skipped spans.
func (m *Machine) Shift(k int64, from, to Snapshot) error {
	switch {
	case m.Trace.Enabled():
		return errors.New("gpu: cannot shift a traced machine")
	case k < 0:
		return errors.New("gpu: negative shift")
	case m.CPU.Now() != to.now || m.jobCounter != to.jobs || m.Stats != to.stats:
		return errors.New("gpu: shift from a state other than the machine's")
	case to.now < from.now || !from.Repeats(to):
		return errors.New("gpu: shift across snapshots that do not repeat")
	}
	dt := timing.Time(k) * (to.now - from.now)
	dj := k * (to.jobs - from.jobs)
	m.CPU.AdvanceTo(m.CPU.Now() + dt)
	for i, e := range m.engines() {
		e.Shift(dt, timing.Time(k)*(to.busy[i]-from.busy[i]), k*(to.tasks[i]-from.tasks[i]))
	}
	m.Stats = m.Stats.plus(k, from.stats, to.stats)
	m.jobCounter += dj
	if m.lastFPJob != 0 {
		m.lastFPJob += dj
	}
	m.lastFPEnd += dt
	for i := range m.outstanding {
		m.outstanding[i] += dt
	}
	for _, r := range m.resources {
		r.readyAt += dt
		r.lastRead += dt
		r.writerFPStart += dt
		if r.writerJob != 0 {
			r.writerJob += dj
		}
	}
	return nil
}

// plus returns s advanced by k times the difference from→to, field by
// field.
func (s Stats) plus(k int64, from, to Stats) Stats {
	return Stats{
		Draws:           s.Draws + k*(to.Draws-from.Draws),
		Bubbles:         s.Bubbles + k*(to.Bubbles-from.Bubbles),
		WARStalls:       s.WARStalls + k*(to.WARStalls-from.WARStalls),
		CopyOps:         s.CopyOps + k*(to.CopyOps-from.CopyOps),
		CopyBytes:       s.CopyBytes + k*(to.CopyBytes-from.CopyBytes),
		UploadOps:       s.UploadOps + k*(to.UploadOps-from.UploadOps),
		UploadBytes:     s.UploadBytes + k*(to.UploadBytes-from.UploadBytes),
		TileLoads:       s.TileLoads + k*(to.TileLoads-from.TileLoads),
		TileStores:      s.TileStores + k*(to.TileStores-from.TileStores),
		FragmentsShaded: s.FragmentsShaded + k*(to.FragmentsShaded-from.FragmentsShaded),
	}
}
