// Command app reaches each of the fixture's live declarations once.
package main

import "fixture/internal/lib"

func main() {
	viaClosure := lib.Outer()
	println(viaClosure(), lib.Max(1, 2), lib.V{}.Value(), (&lib.P{}).Ptr(), lib.Greet(lib.N{}))
}
