// No-progress watchdog: detects a wedged simulation run.
//
// A run is "wedged" when clients are still waiting but the system makes no
// observable progress for a whole simulated-time budget — a quorum is
// permanently partitioned, a leader died in a system with no elections, a
// protocol bug dropped the only pending request. Without a watchdog such a
// run spins through heartbeat timers forever (the event heap never drains),
// so the harness would loop to its wall-clock horizon and report nothing
// useful. The watchdog turns that into a bounded, diagnosable exit: it
// stops the simulator and hands the caller a report naming when progress
// stalled and what the progress value was.
package simnet

import (
	"fmt"
	"time"

	"acuerdo/internal/trace"
)

// WatchdogReport describes a watchdog firing.
type WatchdogReport struct {
	// FiredAt is the simulated time the watchdog fired.
	FiredAt Time
	// LastProgress is the simulated time the progress value last changed.
	LastProgress Time
	// Budget is the no-progress budget that was exceeded.
	Budget time.Duration
	// Progress is the progress value observed at firing time.
	Progress int64
	// Stalled names every live process at firing time — the ones that
	// were scheduled but produced no client-visible progress. Down names
	// the crashed ones. Together they are the diagnostic dump: a wedged
	// quorum partition shows every replica stalled, a dead fixed leader
	// shows it in Down while its acceptors stall.
	Stalled []string
	// Down names every crashed process at firing time.
	Down []string
}

// String renders the report as a one-line diagnostic.
func (r WatchdogReport) String() string {
	return fmt.Sprintf("watchdog: no progress for %v (last at %v, fired at %v, progress=%d); stalled=%v down=%v",
		r.Budget, r.LastProgress, r.FiredAt, r.Progress, r.Stalled, r.Down)
}

// Watchdog periodically samples a progress value and fires when it has not
// changed for a whole budget of simulated time. Firing emits a
// trace.KWatchdog event, invokes the onFire callback, and stops the
// simulator so the enclosing Run/RunUntil returns instead of spinning on
// heartbeat traffic forever.
type Watchdog struct {
	sim      *Sim
	budget   time.Duration
	progress func() int64
	onFire   func(WatchdogReport)

	last    int64
	lastAt  Time
	fired   bool
	stopped bool
	report  WatchdogReport
}

// watchdogChecks is how many times per budget the watchdog samples
// progress. The firing delay is therefore at most budget*(1+1/checks).
const watchdogChecks = 8

// NewWatchdog starts a watchdog on sim. progress must be a cheap function
// returning a monotonic value (typically "client acks observed"); any
// change counts as progress. onFire may be nil. The watchdog arms
// immediately: if nothing ever progresses, it fires one budget from now.
func NewWatchdog(sim *Sim, budget time.Duration, progress func() int64, onFire func(WatchdogReport)) *Watchdog {
	w := &Watchdog{
		sim:      sim,
		budget:   budget,
		progress: progress,
		onFire:   onFire,
		last:     progress(),
		lastAt:   sim.Now(),
	}
	w.arm()
	return w
}

func (w *Watchdog) arm() {
	w.sim.PostAfter(w.budget/watchdogChecks, w.check)
}

func (w *Watchdog) check() {
	if w.stopped || w.fired {
		return
	}
	now := w.sim.Now()
	if cur := w.progress(); cur != w.last {
		w.last = cur
		w.lastAt = now
	} else if now.Sub(w.lastAt) >= w.budget {
		w.fired = true
		w.report = WatchdogReport{
			FiredAt:      now,
			LastProgress: w.lastAt,
			Budget:       w.budget,
			Progress:     cur,
		}
		for _, p := range w.sim.Procs() {
			if p.Alive() {
				w.report.Stalled = append(w.report.Stalled, p.Name)
			} else {
				w.report.Down = append(w.report.Down, p.Name)
			}
		}
		if tr := w.sim.Tracer(); tr != nil {
			tr.Instant(trace.KWatchdog, -1, int64(now), int64(w.budget), cur)
			tr.Add(trace.CtrWatchdogs, 1)
		}
		if w.onFire != nil {
			w.onFire(w.report)
		}
		w.sim.Stop()
		return
	}
	w.arm()
}

// Fired reports whether the watchdog has fired.
func (w *Watchdog) Fired() bool { return w.fired }

// Report returns the firing report (zero value if the watchdog has not
// fired).
func (w *Watchdog) Report() WatchdogReport { return w.report }

// Stop disarms the watchdog; pending checks become no-ops.
func (w *Watchdog) Stop() { w.stopped = true }
