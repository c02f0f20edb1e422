package retry

import (
	"errors"
	"math"
	"net/http"
	"testing"
	"time"
)

func TestParseRetryAfterDeltaSeconds(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"0", 0, true},
		{"1", time.Second, true},
		{" 120 ", 2 * time.Minute, true},
		{"-3", 0, false},
		{"", 0, false},
		{"soon", 0, false},
		{"1.5", 0, false}, // RFC 9110 delta-seconds are integral
		// Past MaxInt64 nanoseconds the wait saturates instead of wrapping
		// (to about -292 years, or to 290 ms one wrap further).
		{"9223372037", math.MaxInt64, true},
		{"18446744074", math.MaxInt64, true},
		{"99999999999999999999", math.MaxInt64, true}, // beyond int64 itself
	} {
		got, ok := ParseRetryAfter(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

func TestParseRetryAfterHTTPDate(t *testing.T) {
	// A future HTTP-date yields (approximately) the wait until it.
	future := time.Now().Add(90 * time.Second).UTC().Format(http.TimeFormat)
	got, ok := ParseRetryAfter(future)
	if !ok {
		t.Fatalf("future HTTP-date %q not parsed", future)
	}
	if got < 80*time.Second || got > 90*time.Second {
		t.Fatalf("future HTTP-date wait = %v, want ~90s", got)
	}
	// A past date is an explicit "retry now": zero wait, but recognised.
	past := time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat)
	got, ok = ParseRetryAfter(past)
	if !ok || got != 0 {
		t.Fatalf("past HTTP-date = (%v, %v), want (0, true)", got, ok)
	}
	// The obsolete RFC 850 form http.ParseTime accepts also parses.
	rfc850 := time.Now().Add(90 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT")
	if _, ok := ParseRetryAfter(rfc850); !ok {
		t.Fatalf("RFC 850 date %q not parsed", rfc850)
	}
}

func TestRetryAfterHintAttachesParsedWait(t *testing.T) {
	base := errors.New("status 503")
	h := http.Header{}
	h.Set("Retry-After", "7")
	err := RetryAfterHint(base, h)
	if d, ok := HintFrom(err); !ok || d != 7*time.Second {
		t.Fatalf("hint = (%v, %v), want (7s, true)", d, ok)
	}
	// HTTP-date form reaches the hint too — shed clients of the study
	// service must back off correctly whichever form the server picked.
	h.Set("Retry-After", time.Now().Add(30*time.Second).UTC().Format(http.TimeFormat))
	err = RetryAfterHint(base, h)
	if d, ok := HintFrom(err); !ok || d <= 20*time.Second {
		t.Fatalf("HTTP-date hint = (%v, %v), want ~30s", d, ok)
	}
	// No header / junk header: error unchanged, no phantom hint.
	if err := RetryAfterHint(base, http.Header{}); err != base {
		t.Fatalf("no header changed the error: %v", err)
	}
	h.Set("Retry-After", "whenever")
	if err := RetryAfterHint(base, h); err != base {
		t.Fatalf("junk header changed the error: %v", err)
	}
	if RetryAfterHint(nil, h) != nil {
		t.Fatal("nil error grew a hint")
	}
}
