// Command perfbench is the fixture's benchmark module.
package main

import "fixture/internal/lib"

func main() { println(lib.OnlyPerfbench()) }
