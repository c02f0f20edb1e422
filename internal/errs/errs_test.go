package errs

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestStageKeepsInnermostAttribution(t *testing.T) {
	if err := Stage("crawl", "2021", nil); err != nil {
		t.Fatalf("Stage(nil) = %v, want nil", err)
	}
	inner := Stage("extract", "2020", errors.New("torn zip"))
	wrapped := fmt.Errorf("ingest: %w", inner)
	if got := Stage("analyse", "2020", wrapped); got != wrapped {
		t.Fatalf("Stage re-attributed an attributed error: %v", got)
	}
	var se *StageError
	if !errors.As(wrapped, &se) || se.Stage != "extract" || se.Snapshot != "2020" {
		t.Fatalf("innermost attribution lost: %+v", se)
	}
}

func TestTaxonomyMatches(t *testing.T) {
	plain := errors.New("disk full")
	for _, tc := range []struct {
		name   string
		err    error
		target error
		want   bool
	}{
		{"deadline is cancelled", Stage("crawl", "2021", context.DeadlineExceeded), ErrCancelled, true},
		{"deadline keeps its cause", Stage("crawl", "2021", context.DeadlineExceeded), context.DeadlineExceeded, true},
		{"wrapped cancel is cancelled", Stage("persist", "", fmt.Errorf("put: %w", context.Canceled)), ErrCancelled, true},
		{"wrapped cancel keeps its cause", Stage("persist", "", fmt.Errorf("put: %w", context.Canceled)), context.Canceled, true},
		{"plain failure is not cancelled", Stage("persist", "", plain), ErrCancelled, false},
		{"budget through a wrap", fmt.Errorf("run: %w", &BudgetError{Snapshot: "2021"}), ErrBudgetExceeded, true},
		{"unsupported ops through a wrap", fmt.Errorf("exec: %w", &UnsupportedOpsError{Model: "m", Ops: []string{"lstm"}}), ErrUnsupportedOps, true},
		{"app error unwraps to its cause", &AppError{Package: "com.example", Err: plain}, plain, true},
	} {
		if got := errors.Is(tc.err, tc.target); got != tc.want {
			t.Errorf("%s: errors.Is(%v, %v) = %v, want %v", tc.name, tc.err, tc.target, got, tc.want)
		}
	}
}
