package serve

import (
	"fmt"
	"net/http"

	"liquidarch/internal/core"
)

// MaxBatchItems caps one batch's expanded item count: a batch is one
// job executing its items sequentially, so an unbounded matrix
// would hold a scheduler worker for its whole duration while looking
// like a single queued job to admission control.
const MaxBatchItems = 64

// Weighting is one objective weighting of a batch's weight sweep.
type Weighting struct {
	W1 float64 `json:"w1"`
	W2 float64 `json:"w2"`
	W3 float64 `json:"w3,omitempty"`
}

// BatchRequest is the POST /v1/batch payload: a JobRequest template
// plus the axes of a sweep matrix. The expanded items are the cross
// product Apps × Spaces × Weightings, each axis defaulting to the
// template's own value, and all items run through ONE job and one
// session batch — so a weight sweep of one application performs one
// model build and N solves (models.builds under /v1/metrics stays at
// 1). The template's Class schedules the whole batch; sweeps usually
// want "bulk" so interactive jobs admitted later still run first.
type BatchRequest struct {
	JobRequest
	// Apps sweeps the application axis (empty: the template's App).
	Apps []string `json:"apps,omitempty"`
	// Spaces sweeps the decision-space axis (empty: the template's
	// Space).
	Spaces []string `json:"spaces,omitempty"`
	// Weightings sweeps the objective-weight axis (empty: the
	// template's W1/W2/W3).
	Weightings []Weighting `json:"weightings,omitempty"`
}

// expand materializes the batch's items in deterministic order (apps
// outermost, weightings innermost — consecutive items differ only in
// weights, the exact pattern the model layer answers with one build).
func (r BatchRequest) expand() ([]JobRequest, error) {
	apps := r.Apps
	if len(apps) == 0 {
		apps = []string{r.App}
	}
	spaces := r.Spaces
	if len(spaces) == 0 {
		spaces = []string{r.Space}
	}
	n := len(apps) * len(spaces) * max(1, len(r.Weightings))
	if n > MaxBatchItems {
		return nil, fmt.Errorf("batch expands to %d items, limit is %d", n, MaxBatchItems)
	}
	items := make([]JobRequest, 0, n)
	for _, app := range apps {
		for _, space := range spaces {
			item := r.JobRequest
			item.App = app
			item.Space = space
			if len(r.Weightings) == 0 {
				items = append(items, item)
				continue
			}
			for _, wt := range r.Weightings {
				wt := wt
				it := item
				it.W1, it.W2, it.W3 = &wt.W1, &wt.W2, &wt.W3
				items = append(items, it)
			}
		}
	}
	return items, nil
}

// SubmitBatch enqueues a batch job (the programmatic form of
// POST /v1/batch): every expanded item is validated up front, and the
// whole matrix becomes one job.
func (s *Server) SubmitBatch(req BatchRequest) (JobStatus, error) {
	items, err := req.expand()
	if err != nil {
		return JobStatus{}, &apiError{http.StatusBadRequest, err.Error()}
	}
	creqs := make([]core.Request, len(items))
	for i, item := range items {
		if creqs[i], err = resolve(item); err != nil {
			return JobStatus{}, &apiError{http.StatusBadRequest,
				fmt.Sprintf("batch item %d: %v", i, err)}
		}
	}
	return s.submit(req.JobRequest, core.Request{}, creqs)
}
