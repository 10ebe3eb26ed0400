package serve

import (
	"fmt"
	"testing"
)

// BenchmarkSubmitAtRetentionCap times one warm submission, submit to
// terminal, against a job table already holding RetainJobs terminal
// jobs — the steady state of every long-lived daemon, where each
// submission also retires the oldest-finished job. The per-op cost must
// not grow with the cap.
func BenchmarkSubmitAtRetentionCap(b *testing.B) {
	for _, retain := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			s := New(Options{Workers: 2, CacheEntries: 256, RetainJobs: retain})
			defer s.Close()
			req := JobRequest{App: "arith", Scale: "tiny", Space: "dcache"}
			run := func() {
				st, err := s.Submit(req)
				if err != nil {
					b.Fatal(err)
				}
				if end := awaitTerminal(s, st.ID); end.State != StateDone {
					b.Fatalf("job %s: %s %q", end.ID, end.State, end.Error)
				}
			}
			// Warms the measurement cache and model layer, then fills
			// the table to the cap.
			for range retain {
				run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				run()
			}
		})
	}
}

// awaitTerminal blocks until the job reaches a terminal state. The job
// must still be in the table.
func awaitTerminal(s *Server, id string) JobStatus {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	for {
		j.mu.Lock()
		st, ch := j.status, j.updated
		j.mu.Unlock()
		if st.Terminal() {
			return st
		}
		<-ch
	}
}
