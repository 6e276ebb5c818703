package timing

// Resource models a serially-occupied hardware unit (a shader core cluster,
// a DMA engine, the CPU driver thread). Work is scheduled with busy-until
// semantics: a request that arrives while the resource is occupied starts
// when the resource frees up.
//
// Resource is not safe for concurrent use; the simulator is single-threaded
// by design so that virtual time is deterministic.
type Resource struct {
	name      string
	busyUntil Time
	busyTotal Time // accumulated occupied time, for utilisation reports
	jobs      int64
}

// NewResource returns an idle resource with the given display name.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the display name given at construction.
func (r *Resource) Name() string { return r.name }

// Acquire schedules a task of the given duration that may not start before
// earliest. It returns the actual start and end times and advances the
// resource's busy-until horizon. A negative duration is treated as zero.
func (r *Resource) Acquire(earliest, duration Time) (start, end Time) {
	if duration < 0 {
		duration = 0
	}
	start = Max(earliest, r.busyUntil)
	end = start + duration
	r.busyUntil = end
	r.busyTotal += duration
	r.jobs++
	return start, end
}

// FreeAt reports when the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.busyUntil }

// BusyTotal reports the total time the resource has been occupied.
func (r *Resource) BusyTotal() Time { return r.busyTotal }

// Jobs reports how many tasks have been scheduled on the resource.
func (r *Resource) Jobs() int64 { return r.jobs }

// Shift moves the resource forward as if more work had run on it: its
// busy-until horizon by dt, its busy total by busy and its task count by
// jobs. The timing model uses it to skip whole periods of a proven steady
// state.
func (r *Resource) Shift(dt, busy Time, jobs int64) {
	r.busyUntil += dt
	r.busyTotal += busy
	r.jobs += jobs
}

// Reset returns the resource to its initial idle state.
func (r *Resource) Reset() {
	r.busyUntil = 0
	r.busyTotal = 0
	r.jobs = 0
}

// Clock tracks the virtual time of a sequential actor, typically the CPU
// thread issuing API calls. Unlike Resource it has no queueing semantics:
// the actor is always "at" a single instant.
type Clock struct {
	now Time
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current instant.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d (ignored if negative) and returns the
// new instant.
func (c *Clock) Advance(d Time) Time {
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceTo moves the clock forward to t if t is in the future; the clock
// never moves backwards.
func (c *Clock) AdvanceTo(t Time) Time {
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset returns the clock to time zero.
func (c *Clock) Reset() { c.now = 0 }

// VSync models a fixed-rate display refresh. Tick boundaries fall at
// integer multiples of the period (offset zero).
type VSync struct {
	period Time
}

// NewVSync returns a vsync source with the given refresh rate in Hz.
// A rate of zero or below yields a source whose NextTick is the identity,
// modelling a display that imposes no waiting.
func NewVSync(hz float64) *VSync {
	if hz <= 0 {
		return &VSync{period: 0}
	}
	return &VSync{period: FromSeconds(1 / hz)}
}

// Period returns the refresh period (zero when the source imposes no wait).
func (v *VSync) Period() Time { return v.period }

// NextTick returns the first tick boundary strictly after t. When the
// period is zero it returns t unchanged.
func (v *VSync) NextTick(t Time) Time {
	if v.period <= 0 {
		return t
	}
	n := t / v.period
	tick := n * v.period
	if tick <= t {
		tick += v.period
	}
	return tick
}
