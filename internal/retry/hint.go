package retry

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ParseRetryAfter parses a Retry-After header value into the wait a
// server directed, accepting both RFC 9110 forms:
//
//   - delta-seconds ("120")
//   - an HTTP-date ("Fri, 07 Aug 2026 11:30:00 GMT" and the obsolete
//     RFC 850 / asctime forms http.ParseTime accepts)
//
// A date in the past (or exactly now) parses as a zero wait with ok=true:
// the server said "retry immediately", which is different from saying
// nothing. Delta-seconds too large for a time.Duration saturate to the
// largest one (RFC 9111 §1.2.2) rather than wrapping; the caller's
// MaxDelay or its own cap bounds the actual wait. Unparseable or negative
// values return ok=false, leaving the caller's own backoff in charge. The
// shed clients of the study service and the crawler both route 429/503
// pacing through here into a Policy Hint.
func ParseRetryAfter(v string) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	// ParseInt saturates out-of-range input to ±MaxInt64 with ErrRange.
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil || errors.Is(err, strconv.ErrRange) {
		switch {
		case secs < 0:
			return 0, false
		case secs > math.MaxInt64/int64(time.Second):
			return math.MaxInt64, true
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// RetryAfterHint extracts a Retry-After wait from h and attaches it to
// err as a Hint for Do; without the header (or with a malformed value)
// err is returned unchanged.
func RetryAfterHint(err error, h http.Header) error {
	if err == nil {
		return nil
	}
	if after, ok := ParseRetryAfter(h.Get("Retry-After")); ok {
		return Hint(err, after)
	}
	return err
}
