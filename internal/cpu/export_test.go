package cpu

// FollowerCaughtUp reports whether Follow has started its walks behind the
// recording and each has walked everything the recording has published,
// so that a test can hold the recording until the follower has walked.
func (t *Trace) FollowerCaughtUp() bool {
	t.pubMu.Lock()
	published := len(t.pub.seq)
	t.pubMu.Unlock()
	t.mu.Lock()
	early := t.early
	t.mu.Unlock()
	for _, w := range early {
		w.mu.Lock()
		behind := w.seq < published
		w.mu.Unlock()
		if behind {
			return false
		}
	}
	return len(early) > 0
}
