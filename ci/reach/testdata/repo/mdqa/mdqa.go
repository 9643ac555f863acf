// Package mdqa is the fixture's public facade: every exported name in
// it is a root.
package mdqa

import "fixture/internal/lib"

// Thing aliases an internal type, so its methods are roots too.
type Thing = lib.Thing

// Public is an exported function that no main calls.
func Public() int { return lib.OnlyMdqa() }
