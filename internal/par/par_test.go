package par

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestNewResolvesWidth(t *testing.T) {
	if got := New(0).Width(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Width() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).Width(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Width() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(1).Width(); got != 1 {
		t.Fatalf("New(1).Width() = %d, want 1", got)
	}
	if got := New(7).Width(); got != 7 {
		t.Fatalf("New(7).Width() = %d, want 7", got)
	}
	var zero Pool
	if got := zero.Width(); got != 1 {
		t.Fatalf("zero Pool width = %d, want 1", got)
	}
}

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine <id> [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestWidthOneRunsInOrderOnCaller pins what the engines rely on at
// width 1: tasks 0..n-1 run in order on the calling goroutine.
func TestWidthOneRunsInOrderOnCaller(t *testing.T) {
	for _, p := range []Pool{{}, New(1)} {
		caller := goid()
		var order []int
		p.Run(20, func(task int) {
			if id := goid(); id != caller {
				t.Errorf("task %d ran on goroutine %s, caller is %s", task, id, caller)
			}
			order = append(order, task)
		})
		for i, task := range order {
			if task != i {
				t.Fatalf("width 1 ran tasks in order %v", order)
			}
		}
		if len(order) != 20 {
			t.Fatalf("width 1 ran %d of 20 tasks", len(order))
		}
	}
}

func TestRunExecutesEveryTaskOnce(t *testing.T) {
	for _, width := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			hits := make([]atomic.Int32, n)
			New(width).Run(n, func(task int) {
				hits[task].Add(1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("width=%d n=%d: task %d ran %d times", width, n, i, got)
				}
			}
		}
	}
}

func TestChunksCoverInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 17, 100} {
		for _, parts := range []int{0, 1, 2, 4, 7, 150} {
			chunks := Chunks(n, parts)
			covered := 0
			for i, c := range chunks {
				if c[0] != covered {
					t.Fatalf("n=%d parts=%d: chunk %d starts at %d, want %d", n, parts, i, c[0], covered)
				}
				if c[1] <= c[0] {
					t.Fatalf("n=%d parts=%d: empty chunk %v", n, parts, c)
				}
				covered = c[1]
			}
			if covered != n {
				t.Fatalf("n=%d parts=%d: chunks cover %d", n, parts, covered)
			}
		}
	}
}

func TestMapCollectsInTaskOrder(t *testing.T) {
	for _, width := range []int{1, 4} {
		out, err := Map(context.Background(), New(width), 50, func(task int) (int, error) {
			return task * 2, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 50 {
			t.Fatalf("width=%d: %d results, want 50", width, len(out))
		}
		for i, v := range out {
			if v != i*2 {
				t.Fatalf("width=%d: out[%d] = %d, want %d", width, i, v, i*2)
			}
		}
	}
}

func TestMapFirstErrorInTaskOrder(t *testing.T) {
	wantA, wantB := errors.New("a"), errors.New("b")
	_, err := Map(context.Background(), New(4), 20, func(task int) (int, error) {
		switch task {
		case 3:
			return 0, wantA
		case 11:
			return 0, wantB
		}
		return task, nil
	})
	if err != wantA {
		t.Fatalf("Map error = %v, want first-in-task-order %v", err, wantA)
	}
}

func TestMapCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	if _, err := Map(ctx, New(1), 5, func(task int) (int, error) {
		ran++
		return task, nil
	}); err == nil {
		t.Fatal("Map with cancelled context succeeded")
	}
	if ran != 0 {
		t.Fatalf("cancelled Map still ran %d tasks", ran)
	}
}
