package sched

import (
	"aitia/internal/kir"
	"aitia/internal/kvm"
	"aitia/internal/sanitizer"
)

// The scheduling rules below are shared by the two step loops: the
// enforcer's Run and the LIFS explorer (internal/core). LIFS hands its
// winning path to Run as a Schedule, so the loops must decide every step
// alike; each rule therefore lives here once. Viability is
// kvm.Machine.CanRun.

// Diversions is the lock-diversion return stack (liveness, paper §3.4).
// A thread that blocks on a held lock is pushed and the lock's owner runs
// until it releases; then the run returns to the diverted-from thread.
// The zero value is empty. Divert never writes into an array another
// value shares, so a copy of a Diversions is a snapshot: the explorer
// hands each branch its own copy by value.
type Diversions struct{ stack []kvm.ThreadID }

// Divert applies the liveness rule to thread tid. When tid is blocked on
// a held lock, Divert pushes tid and returns the lock's owner to run
// until it releases. Otherwise it returns false and changes nothing. It
// also refuses when the owner waits, directly or through other owners,
// on a lock tid holds: no thread of that cycle can release, so the run
// goes on with the others until Ended reports the deadlock.
func (d *Diversions) Divert(m *kvm.Machine, tid kvm.ThreadID) (kvm.ThreadID, bool) {
	t := m.Thread(tid)
	if t == nil || t.State != kvm.Blocked {
		return tid, false
	}
	owner, held := m.LockOwner(t.WaitLock)
	if !held || waitsOn(m, owner, tid) {
		return tid, false
	}
	n := len(d.stack)
	d.stack = append(d.stack[:n:n], tid)
	return owner, true
}

// waitsOn reports whether thread o's chain of lock waits — the owner of
// the lock o is blocked on, that owner's, and so on — reaches tid.
func waitsOn(m *kvm.Machine, o, tid kvm.ThreadID) bool {
	for range m.NumThreads() {
		if o == tid {
			return true
		}
		t := m.Thread(o)
		if t.State != kvm.Blocked {
			return false
		}
		next, held := m.LockOwner(t.WaitLock)
		if !held {
			return false
		}
		o = next
	}
	return false
}

// Resume returns the thread to run next in place of cur. Once the
// diverted-from thread on top of the stack can run again, Resume pops
// it and returns it, so the intended schedule resumes; one that has ended
// is dropped and the next is considered. With an empty stack, or a top
// thread still blocked, cur stays. The empty check inlines, so the
// common case costs one length test.
func (d *Diversions) Resume(m *kvm.Machine, cur kvm.ThreadID) kvm.ThreadID {
	if len(d.stack) == 0 {
		return cur
	}
	return d.resume(m, cur)
}

func (d *Diversions) resume(m *kvm.Machine, cur kvm.ThreadID) kvm.ThreadID {
	for n := len(d.stack); n > 0; n-- {
		top := d.stack[n-1]
		if m.CanRun(top) {
			d.stack = d.stack[:n-1]
			return top
		}
		if m.Thread(top).State == kvm.Blocked {
			return cur
		}
		d.stack = d.stack[:n-1]
	}
	return cur
}

// Ended applies the end-of-run rules before a step and reports whether
// the run is over: the machine has failed; or every thread has finished,
// which runs the memory-leak check when leakCheck is set; or the
// unfinished threads are all blocked, which fails the run with a
// deadlock on the lowest-ID blocked thread, at the lock it waits on.
func Ended(m *kvm.Machine, leakCheck bool) bool {
	switch {
	case m.Failure() != nil:
		return true
	case m.AllDone():
		if leakCheck {
			m.CheckLeaks()
		}
		return true
	case m.Deadlocked():
		// A crashed thread means a failure, so some thread is blocked.
		for i := range m.NumThreads() {
			if t := m.Thread(kvm.ThreadID(i)); t.State == kvm.Blocked {
				in, _ := m.NextInstr(t.ID)
				m.InjectFailure(&sanitizer.Failure{
					Kind:   sanitizer.KindDeadlock,
					Thread: t.Name,
					Instr:  in.ID,
					Addr:   t.WaitLock,
					Msg:    "all unfinished threads are blocked",
				})
				break
			}
		}
		return true
	}
	return false
}

// Watchdog applies the soft-lockup rule after a step: a run that has
// executed more than budget steps fails with a watchdog failure on the
// step that crossed the budget (thread t, instruction at). It reports
// whether it fired.
func Watchdog(m *kvm.Machine, steps, budget int, t *kvm.Thread, at kir.InstrID) bool {
	if steps <= budget {
		return false
	}
	m.InjectFailure(&sanitizer.Failure{
		Kind:   sanitizer.KindWatchdog,
		Thread: t.Name,
		Instr:  at,
		Msg:    "step budget exceeded",
	})
	return true
}
