package path

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The robustness contract of the pool layer: a cancelled context stops the
// sweep at the next segment boundary and surfaces ctx.Err(), a panicking
// worker or emit callback surfaces as a *PanicError instead of crashing
// the process, and an injected segment error — wherever it lands on the
// path — cancels the remaining segments. All suites run under -race in CI.

// TestRunCtxCancelledBeforeStart asserts an already cancelled context
// returns ctx.Err() without running a single segment.
func TestRunCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := RunCtx(ctx, New([]int{8, 8}, 0), 4,
		func() int { return 0 },
		func(_ int, lo, hi int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("cancelled pool ran %d segments", ran.Load())
	}
}

// TestRunCtxCancelMidSweep cancels from inside an early segment and
// asserts the pool stops claiming: with a single worker the remaining
// segments are all skipped, so the segment count stays well below the
// chain count.
func TestRunCtxCancelMidSweep(t *testing.T) {
	pl := New([]int{32, 4}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	err := RunCtx(ctx, pl, 1,
		func() int { return 0 },
		func(_ int, lo, hi int) error {
			if ran.Add(1) == 2 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("single worker ran %d segments after cancelling on the 2nd (of %d)", n, pl.Chains())
	}
}

// TestRunPanicRecovery asserts a panicking worker surfaces as a
// *PanicError carrying the segment rank, the recovered value and a stack,
// with the remaining segments cancelled.
func TestRunPanicRecovery(t *testing.T) {
	pl := New([]int{16, 4}, 0)
	boom := pl.Chains() / 2
	err := Run(pl, 4,
		func() int { return 0 },
		func(_ int, lo, hi int) error {
			lo0, _ := pl.Segment(boom)
			if lo == lo0 {
				panic("injected worker panic")
			}
			return nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Segment != boom {
		t.Fatalf("panic segment = %d, want %d", pe.Segment, boom)
	}
	if pe.Value != "injected worker panic" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Fatalf("panic stack not captured: %q", pe.Stack)
	}
	if msg := pe.Error(); !strings.Contains(msg, "injected worker panic") {
		t.Fatalf("Error() = %q", msg)
	}
}

// TestRunNewWorkerPanic asserts a panicking worker constructor fails the
// run with a *PanicError at Segment -1 instead of killing the process or
// deadlocking the segment send loop, for both pools at 1 and 4 workers.
// The pool must return even though a dead worker never claims a segment —
// the construction guard drains the channel on its way out.
func TestRunNewWorkerPanic(t *testing.T) {
	pl := New([]int{16, 4}, 0)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("Run/w=%d", workers), func(t *testing.T) {
			err := Run(pl, workers,
				func() int { panic("constructor blew up") },
				func(_ int, lo, hi int) error { return nil })
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PanicError, got %T: %v", err, err)
			}
			if pe.Segment != -1 {
				t.Fatalf("constructor panic segment = %d, want -1", pe.Segment)
			}
			if !strings.Contains(pe.Error(), "worker construction") {
				t.Fatalf("Error() = %q, want a worker-construction message", pe.Error())
			}
		})
		t.Run(fmt.Sprintf("RunOrdered/w=%d", workers), func(t *testing.T) {
			var emitted atomic.Int64
			err := RunOrdered(pl, workers,
				func() int { panic("constructor blew up") },
				func(_ int, c, lo, hi int) error { return nil },
				func(c, lo, hi int) error { emitted.Add(1); return nil })
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("want *PanicError, got %T: %v", err, err)
			}
			if pe.Segment != -1 {
				t.Fatalf("constructor panic segment = %d, want -1", pe.Segment)
			}
			if emitted.Load() != 0 {
				t.Fatalf("dead pool emitted %d segments", emitted.Load())
			}
		})
	}
}

// TestRunNewWorkerPanicPartial panics in only one of four constructors and
// asserts the pool still fails (construction is all-or-nothing: a partial
// pool would silently change the schedule) without losing the error.
func TestRunNewWorkerPanicPartial(t *testing.T) {
	pl := New([]int{16, 4}, 0)
	var built atomic.Int64
	err := Run(pl, 4,
		func() int {
			if built.Add(1) == 1 {
				panic("first constructor blew up")
			}
			return 0
		},
		func(_ int, lo, hi int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Value != "first constructor blew up" {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

// TestRunErrorAnySegment injects a failure in the first, a middle and the
// last segment and asserts the pool surfaces exactly that error at every
// worker count.
func TestRunErrorAnySegment(t *testing.T) {
	pl := New([]int{12, 5}, 0)
	sentinel := errors.New("injected segment failure")
	for _, seg := range []int{0, pl.Chains() / 2, pl.Chains() - 1} {
		for _, workers := range []int{1, 4, 9} {
			t.Run(fmt.Sprintf("seg=%d/w=%d", seg, workers), func(t *testing.T) {
				lo0, _ := pl.Segment(seg)
				err := Run(pl, workers,
					func() int { return 0 },
					func(_ int, lo, hi int) error {
						if lo == lo0 {
							return sentinel
						}
						return nil
					})
				if !errors.Is(err, sentinel) {
					t.Fatalf("want injected failure, got %v", err)
				}
			})
		}
	}
}

// TestRunOrderedCtxCancelStopsEmission cancels during an early emission
// and asserts no later segment is emitted, the pool returns ctx.Err()
// promptly (parked workers are woken, not deadlocked), and emission stayed
// a strict in-order prefix.
func TestRunOrderedCtxCancelStopsEmission(t *testing.T) {
	pl := New([]int{32, 4}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var emitted []int
	err := RunOrderedCtx(ctx, pl, 4,
		func() int { return 0 },
		func(_ int, c, lo, hi int) error { return nil },
		func(c, lo, hi int) error {
			mu.Lock()
			emitted = append(emitted, c)
			mu.Unlock()
			if c == 1 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, c := range emitted {
		if c != i {
			t.Fatalf("emission order broke: %v", emitted)
		}
	}
	if len(emitted) >= pl.Chains() {
		t.Fatalf("cancellation emitted all %d segments", len(emitted))
	}
}

// TestRunOrderedEmitFailure asserts a mid-stream emit error cancels the
// sweep and surfaces unchanged, and that no segment after the failing one
// is ever emitted.
func TestRunOrderedEmitFailure(t *testing.T) {
	pl := New([]int{16, 4}, 0)
	sentinel := errors.New("emit sink failed")
	fail := pl.Chains() / 2
	var last atomic.Int64
	last.Store(-1)
	err := RunOrdered(pl, 3,
		func() int { return 0 },
		func(_ int, c, lo, hi int) error { return nil },
		func(c, lo, hi int) error {
			last.Store(int64(c))
			if c == fail {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want emit failure, got %v", err)
	}
	if last.Load() != int64(fail) {
		t.Fatalf("emission continued past the failure: last=%d fail=%d", last.Load(), fail)
	}
}

// TestRunOrderedEmitPanic asserts a panicking emit callback surfaces as a
// *PanicError keyed on the emitted segment.
func TestRunOrderedEmitPanic(t *testing.T) {
	pl := New([]int{16, 4}, 0)
	boom := 2
	err := RunOrdered(pl, 3,
		func() int { return 0 },
		func(_ int, c, lo, hi int) error { return nil },
		func(c, lo, hi int) error {
			if c == boom {
				panic(fmt.Sprintf("emit panic at %d", c))
			}
			return nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Segment != boom {
		t.Fatalf("panic segment = %d, want %d", pe.Segment, boom)
	}
}

// TestAdaptiveCtxCancelled asserts the refinement loop honors an already
// cancelled context before solving anything.
func TestAdaptiveCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var solves atomic.Int64
	_, err := AdaptiveCtx(ctx, []int{16, 16}, AdaptiveConfig{},
		func(chains [][][]int) error { solves.Add(1); return nil },
		func(rank int) float64 { return 0 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if solves.Load() != 0 {
		t.Fatalf("cancelled refinement solved %d rounds", solves.Load())
	}
}

// TestAdaptiveCtxCancelBetweenRounds cancels after the coarse stage and
// asserts no refinement round runs.
func TestAdaptiveCtxCancelBetweenRounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rounds atomic.Int64
	_, err := AdaptiveCtx(ctx, []int{16, 16}, AdaptiveConfig{},
		func(chains [][][]int) error {
			if rounds.Add(1) == 1 {
				cancel() // cancel right after the coarse lattice solves
			}
			return nil
		},
		func(rank int) float64 { return 1 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rounds.Load() != 1 {
		t.Fatalf("refinement ran %d solve rounds after cancellation", rounds.Load())
	}
}

// TestCancelAfterLastClaim pins what each pool reports when cancellation
// arrives after the last segment (or batch) was claimed:
//
//   - RunCtx polls only at claims, so once every segment has passed its
//     claim the run finishes whole and reports success (nil);
//   - RunOrderedCtx also polls before each emission, so the same cancel
//     suppresses the last segment's emit and the run returns ctx.Err();
//   - AdaptiveCtx cancelled inside its final batch returns the completed
//     search (same stats as an uncancelled run) and nil; cancelled inside
//     an earlier batch it returns ctx.Err().
//
// The last segment's runSegment waits until every other segment has run
// before cancelling, so the outcome is the same at any worker count.
func TestCancelAfterLastClaim(t *testing.T) {
	pl := New([]int{12, 4}, 0)
	lastLo, _ := pl.Segment(pl.Chains() - 1)
	// runLastCancels returns a runSegment that counts finished segments and,
	// on the last one, waits for all others before cancelling.
	runLastCancels := func(cancel func(), ran *atomic.Int64) func(lo int) {
		return func(lo int) {
			if lo == lastLo {
				for ran.Load() < int64(pl.Chains()-1) {
					runtime.Gosched()
				}
				cancel()
			}
			ran.Add(1)
		}
	}
	for _, workers := range []int{1, 3, 9} {
		t.Run(fmt.Sprintf("RunCtx/w=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int64
			seg := runLastCancels(cancel, &ran)
			err := RunCtx(ctx, pl, workers, func() int { return 0 },
				func(_ int, lo, hi int) error { seg(lo); return nil })
			if err != nil {
				t.Fatalf("cancel after the last claim: got %v, want nil", err)
			}
			if n := ran.Load(); n != int64(pl.Chains()) {
				t.Fatalf("ran %d of %d segments", n, pl.Chains())
			}
		})
		t.Run(fmt.Sprintf("RunOrderedCtx/w=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int64
			var lastEmitted atomic.Bool
			seg := runLastCancels(cancel, &ran)
			err := RunOrderedCtx(ctx, pl, workers, func() int { return 0 },
				func(_ int, c, lo, hi int) error { seg(lo); return nil },
				func(c, lo, hi int) error {
					if c == pl.Chains()-1 {
						lastEmitted.Store(true)
					}
					return nil
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancel before the last emission: got %v, want context.Canceled", err)
			}
			if lastEmitted.Load() {
				t.Fatal("the last segment was emitted after cancellation")
			}
		})
	}

	dims := []int{16, 16}
	score := func(rank int) float64 {
		x, y := rank/16-5, rank%16-11
		return -float64(x*x + y*y)
	}
	ref, err := Adaptive(dims, AdaptiveConfig{}, func([][][]int) error { return nil }, score)
	if err != nil {
		t.Fatal(err)
	}
	batches := ref.Rounds + 1 // the coarse lattice, then one batch per round
	if batches < 2 {
		t.Fatalf("search ran %d batches; the test needs at least 2", batches)
	}
	for _, cancelAt := range []int{batches, batches - 1} {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		stats, err := AdaptiveCtx(ctx, dims, AdaptiveConfig{}, func([][][]int) error {
			if n++; n == cancelAt {
				cancel()
			}
			return nil
		}, score)
		cancel()
		switch {
		case cancelAt == batches && (err != nil || stats != ref):
			t.Fatalf("cancel in the final batch: got %+v, %v; want %+v, nil", stats, err, ref)
		case cancelAt < batches && !errors.Is(err, context.Canceled):
			t.Fatalf("cancel in batch %d of %d: got %v, want context.Canceled", cancelAt, batches, err)
		}
	}
}

// TestCtxVariantsMatchPlainPool pins the wrapper contract: under
// context.Background() the *Ctx pools visit exactly the segments, order
// (for the ordered pool) and results the plain pools do, at 1, 4 and 9
// workers.
func TestCtxVariantsMatchPlainPool(t *testing.T) {
	pl := New([]int{9, 7}, 0)
	collect := func(run func(store func(int))) []int {
		var mu sync.Mutex
		var got []int
		run(func(k int) { mu.Lock(); got = append(got, k); mu.Unlock() })
		return got
	}
	for _, workers := range []int{1, 4, 9} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			plain := collect(func(store func(int)) {
				if err := Run(pl, workers, func() int { return 0 }, func(_ int, lo, hi int) error {
					for k := lo; k < hi; k++ {
						store(k)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
			ctxed := collect(func(store func(int)) {
				if err := RunCtx(context.Background(), pl, workers, func() int { return 0 }, func(_ int, lo, hi int) error {
					for k := lo; k < hi; k++ {
						store(k)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
			if len(plain) != pl.Len() || len(ctxed) != pl.Len() {
				t.Fatalf("coverage: plain=%d ctx=%d want %d", len(plain), len(ctxed), pl.Len())
			}
			seen := make(map[int]bool, len(ctxed))
			for _, k := range ctxed {
				seen[k] = true
			}
			if len(seen) != pl.Len() {
				t.Fatalf("ctx pool revisited positions: %d unique of %d", len(seen), pl.Len())
			}

			var plainEmit, ctxEmit []int
			if err := RunOrdered(pl, workers, func() int { return 0 },
				func(_ int, c, lo, hi int) error { return nil },
				func(c, lo, hi int) error { plainEmit = append(plainEmit, c); return nil }); err != nil {
				t.Fatal(err)
			}
			if err := RunOrderedCtx(context.Background(), pl, workers, func() int { return 0 },
				func(_ int, c, lo, hi int) error { return nil },
				func(c, lo, hi int) error { ctxEmit = append(ctxEmit, c); return nil }); err != nil {
				t.Fatal(err)
			}
			if len(plainEmit) != len(ctxEmit) {
				t.Fatalf("emission length: plain=%d ctx=%d", len(plainEmit), len(ctxEmit))
			}
			for i := range plainEmit {
				if plainEmit[i] != ctxEmit[i] {
					t.Fatalf("emission order diverged at %d: %v vs %v", i, plainEmit, ctxEmit)
				}
			}
		})
	}
}
