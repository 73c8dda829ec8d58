package cpu

import (
	"context"
	"fmt"
	"math"
)

// cancelCheckEvery is how many steps pass between context checks in
// Lockstep: frequent enough for sub-millisecond cancellation at simulator
// speeds, rare enough to stay off the per-cycle hot path.
const cancelCheckEvery = 8192

// Lockstep runs cores that share one memory system and one cycle domain until
// every one of them is done. It is the only loop that ticks a core.
//
// A step is one global cycle, now: every running core whose clock equals now
// ticks, in core order — the order that makes coherence races deterministic.
// A core whose tick was idle is at once sent to sleep: its clock jumps to its
// own event horizon, its stall counters charged for the span, and it waits
// there until the global clock reaches it. The next now is the earliest clock
// among the running cores, so cycles in which every core sleeps are never
// visited and a core stalled on DRAM costs nothing while its neighbours run.
//
// Sleeping through other cores' ticks is exact because nothing a remote core
// does can move a sleeper's horizon earlier. The horizon is the earliest of
// the ROB head's completion, a dispatch resource freeing (both fixed when the
// instructions dispatched) and the SB head's line becoming writable; a remote
// core reaches only the last, and only by taking the line away — an
// invalidation, a downgrade, an inclusive back-invalidation — after which the
// store can perform no sooner than before. A sleeper woken at a horizon that
// has since moved ticks idle, exactly as the cycle-by-cycle loop does in that
// cycle, and computes the new one. Options.DisableFastForward keeps a core
// awake in every cycle: the reference the equivalence suites compare with.
//
// afterStep runs after each step with the number of steps taken so far; it
// may stop the loop early or fail it. ctx is polled every
// cancelCheckEvery steps. budget bounds the simulated cycles the loop may
// cover: a machine that outruns it has livelocked.
func Lockstep(ctx context.Context, cores []*Core, budget uint64, afterStep func(steps uint64) (stop bool, err error)) error {
	done := ctx.Done()
	now := uint64(math.MaxUint64)
	for _, c := range cores {
		if !c.Done() && c.St.Cycles < now {
			now = c.St.Cycles
		}
	}
	start := now
	for steps := uint64(0); now != math.MaxUint64; steps++ {
		if done != nil && steps%cancelCheckEvery == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		next := uint64(math.MaxUint64)
		for _, c := range cores {
			// A finished core's clock stands still, at or behind now.
			if c.St.Cycles == now && !c.Done() && c.Tick() && !c.noFF {
				c.sleep()
			}
			if c.St.Cycles < next && !c.Done() {
				next = c.St.Cycles
			}
		}
		if stop, err := afterStep(steps + 1); stop || err != nil {
			return err
		}
		now = next
		if now-start > budget && now != math.MaxUint64 {
			var committed uint64
			for _, c := range cores {
				committed += c.St.Committed
			}
			return fmt.Errorf("cpu: no forward progress: %d simulated cycles since the loop started, budget %d (%d instructions committed)",
				now-start, budget, committed)
		}
	}
	return nil
}
