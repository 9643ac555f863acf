package qerr

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestSentinelMatching(t *testing.T) {
	cases := []struct {
		err      error
		sentinel error
	}{
		{&InconsistentError{Violations: []Violation{{Kind: NCViolation, ID: "n1", Detail: "A(x)"}}}, ErrInconsistent},
		{&UnsafeRuleError{Rule: "r1", Var: "x", Reason: "not bound in body"}, ErrUnsafeRule},
		{&UnknownRelationError{Relation: "Missing"}, ErrUnknownRelation},
		{&BoundExceededError{Op: "chase", Rounds: 7, Atoms: 100}, ErrBoundExceeded},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.sentinel) {
			t.Errorf("%T does not match its sentinel %v", c.err, c.sentinel)
		}
		// Wrapping must preserve both Is and As matching.
		wrapped := fmt.Errorf("outer: %w", c.err)
		if !errors.Is(wrapped, c.sentinel) {
			t.Errorf("wrapped %T does not match %v", c.err, c.sentinel)
		}
		for _, other := range []error{ErrInconsistent, ErrUnsafeRule, ErrUnknownRelation, ErrBoundExceeded} {
			if other != c.sentinel && errors.Is(c.err, other) {
				t.Errorf("%T wrongly matches %v", c.err, other)
			}
		}
	}
}

func TestErrorsAsRecoversDetail(t *testing.T) {
	base := &InconsistentError{Violations: []Violation{
		{Kind: EGDConflict, ID: "e6", Detail: "a != b"},
		{Kind: NCViolation, ID: "n1", Detail: "A(x)"},
	}}
	wrapped := fmt.Errorf("assess: %w", base)
	var ie *InconsistentError
	if !errors.As(wrapped, &ie) {
		t.Fatal("errors.As failed to recover *InconsistentError")
	}
	if len(ie.Violations) != 2 || ie.Violations[0].Kind != EGDConflict {
		t.Errorf("violations not preserved: %+v", ie.Violations)
	}

	var be *BoundExceededError
	if !errors.As(fmt.Errorf("x: %w", &BoundExceededError{Op: "chase", Rounds: 3}), &be) {
		t.Fatal("errors.As failed to recover *BoundExceededError")
	}
	if be.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", be.Rounds)
	}
}

func TestErrorRendering(t *testing.T) {
	e := &InconsistentError{Violations: []Violation{{Kind: NCViolation, ID: "n1", Detail: "A(x)"}}}
	if want := "nc-violation n1: A(x)"; !strings.Contains(e.Error(), want) {
		t.Errorf("Error() = %q, want it to contain %q", e.Error(), want)
	}
	u := &UnknownRelationError{Relation: "Sales"}
	if !strings.Contains(u.Error(), "Sales") {
		t.Errorf("Error() = %q misses relation name", u.Error())
	}
	b := &BoundExceededError{Op: "chase", Rounds: 2, Atoms: 9}
	if !strings.Contains(b.Error(), "rounds=2") || !strings.Contains(b.Error(), "atoms=9") {
		t.Errorf("Error() = %q misses progress detail", b.Error())
	}
	// A bound that counts neither rounds nor atoms names no fixpoint.
	if got, want := (&BoundExceededError{Op: "answer stream"}).Error(), "answer stream: bound exceeded"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if (&InconsistentError{}).Error() == "" {
		t.Error("empty InconsistentError must still render")
	}
}
