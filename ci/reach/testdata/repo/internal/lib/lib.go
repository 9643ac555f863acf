// Package lib declares one function or method for each way the
// checker must find code reached.
package lib

// Outer returns a closure, the only caller of viaClosure.
func Outer() func() int {
	return func() int { return viaClosure() }
}

func viaClosure() int { return 1 }

// Max is generic: the linker names its code after a shape, Max[go.shape.int].
func Max[T int | string](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// V has a value-receiver method.
type V struct{ n int }

func (v V) Value() int { return v.n }

// P has a pointer-receiver method.
type P struct{ n int }

func (p *P) Ptr() int { return p.n }

// Namer is the interface Greet calls through.
type Namer interface{ Name() string }

// N is reached only through a Namer.
type N struct{}

func (N) Name() string { return "n" }

// Greet calls Name through the interface.
func Greet(n Namer) string { return "hello " + n.Name() }

// Thing is aliased by mdqa, whose generated root alone reaches Method.
type Thing struct{}

func (t *Thing) Method() int { return 2 }

// OnlyMdqa is called by an exported mdqa function alone.
func OnlyMdqa() int { return 3 }

// OnlyPerfbench is called by the perfbench module alone.
func OnlyPerfbench() int { return 4 }

// Kept is reached by nothing, but the allowlist names it.
func Kept() int { return 5 }
