package client

// IssueWindow is the open-loop issue path's admission control: a bounded
// count of operations a client may have in flight at once. Unlike the
// closed-loop generators — which block until each call completes and so
// can never exceed their process count — an open-loop arrival process
// asks for a slot at every arrival instant and must NOT block when none
// is free (blocking would throttle the offered rate and hide overload).
// TryAcquire is therefore non-blocking: the caller sheds or backlogs the
// arrival itself when admission fails.
type IssueWindow struct {
	slots    int
	inFlight int
	// peak is the high-water in-flight count, for reporting.
	peak int
}

// NewIssueWindow returns a window of n slots (n <= 0 means 1).
func NewIssueWindow(n int) *IssueWindow {
	if n <= 0 {
		n = 1
	}
	return &IssueWindow{slots: n}
}

// TryAcquire claims a slot if one is free, without blocking.
func (w *IssueWindow) TryAcquire() bool {
	if w.inFlight >= w.slots {
		return false
	}
	w.inFlight++
	if w.inFlight > w.peak {
		w.peak = w.inFlight
	}
	return true
}

// Release returns a slot claimed by TryAcquire.
func (w *IssueWindow) Release() {
	if w.inFlight <= 0 {
		panic("client: IssueWindow.Release without TryAcquire")
	}
	w.inFlight--
}

// InFlight reports the slots currently claimed.
func (w *IssueWindow) InFlight() int { return w.inFlight }

// Peak reports the high-water in-flight count.
func (w *IssueWindow) Peak() int { return w.peak }
