package storage

import (
	"repro/internal/datalog"
	"repro/internal/par"
)

// PivotPlan is a rule body compiled for semi-naive rounds: the full
// body plan, one delta plan per body atom (the body re-matched with
// that atom's variables pre-bound from a delta row) and the pivot
// projections that seed those bindings. All of them share the full
// plan's register space, because CompilePlan assigns slots by first
// occurrence in the body, independent of the bound-variable
// declaration; a caller's projections compiled against Full serve
// every unit.
//
// Units splits one round of the body into work units and Run executes
// one. The chase and eval engines fan units out through par.Map and
// merge what the units found in unit order, so a round's output does
// not depend on the pool width.
type PivotPlan struct {
	body   []datalog.Atom
	full   *Plan
	delta  []*Plan
	pivots []Proj
}

// Unit is one work unit of a PivotPlan round: shard of nshard of the
// full body plan (pivot < 0), or rows [lo, hi) of the pivot atom's
// relation, each bound into the registers and re-matched through the
// pivot's delta plan.
type Unit struct {
	pivot         int
	shard, nshard int
	lo, hi        int
}

// CompilePivotPlan compiles body for semi-naive rounds against db,
// interning the body's constants (engine mode, like CompilePlan).
func CompilePivotPlan(db *Instance, body []datalog.Atom) *PivotPlan {
	pp := &PivotPlan{body: body}
	pp.Replan(db)
	pp.pivots = make([]Proj, len(body))
	for i, a := range body {
		pp.pivots[i] = pp.full.CompileProj(a)
	}
	return pp
}

// Full returns the full body plan, whose register space every unit
// shares.
func (pp *PivotPlan) Full() *Plan { return pp.full }

// Replan recompiles the full and delta plans against db's current
// statistics, in place. Slot assignment does not depend on atom order,
// so the pivot projections and every projection or register snapshot
// a caller took from Full stay valid.
func (pp *PivotPlan) Replan(db *Instance) {
	pp.full = CompilePlan(db, pp.body)
	pp.delta = make([]*Plan, len(pp.body))
	for i, a := range pp.body {
		pp.delta[i] = CompilePlan(db, pp.body, a.Vars()...)
	}
}

// Units appends to dst the work units of one round for a pool of the
// given width, and returns the extended slice; a caller that builds
// rounds in a loop passes the previous round's slice cut to length 0.
// A full round is width shards of the full plan. A delta round pivots
// each body atom, in body order, on its relation's window
// [from[pred], to[pred]) — the rows appended between two Lens
// snapshots — chunked with par.Chunks. Unit boundaries depend only on
// the width and the windows, and running the units in order
// enumerates the same matches in the same order at every width.
func (pp *PivotPlan) Units(dst []Unit, width int, full bool, from, to map[string]int) []Unit {
	if full {
		for s := 0; s < width; s++ {
			dst = append(dst, Unit{pivot: -1, shard: s, nshard: width})
		}
		return dst
	}
	for i := range pp.pivots {
		pred := pp.pivots[i].Pred
		lo, hi := from[pred], to[pred]
		for _, c := range par.Chunks(hi-lo, width) {
			dst = append(dst, Unit{pivot: i, lo: lo + c[0], hi: lo + c[1]})
		}
	}
	return dst
}

// Run enumerates the unit's matches into fn, with regs a register bank
// from Full().NewRegs(). fn must not retain regs; fn returning false
// stops the unit, and Run reports whether it ran to completion. Like
// Plan.Execute it only reads db, so units of one round may run on
// concurrent workers, each with its own register bank.
func (pp *PivotPlan) Run(db *Instance, u Unit, regs []int32, fn func(regs []int32) bool) bool {
	if u.pivot < 0 {
		return pp.full.ExecuteShard(db, regs, u.shard, u.nshard, fn)
	}
	proj, dp := &pp.pivots[u.pivot], pp.delta[u.pivot]
	for _, row := range db.Relation(proj.Pred).Rows()[u.lo:u.hi] {
		pp.full.ResetRegs(regs)
		if !proj.Bind(row, regs) {
			continue
		}
		if !dp.Execute(db, regs, fn) {
			return false
		}
	}
	return true
}
