package experiments

import "testing"

func TestBufSizeAblationShape(t *testing.T) {
	rows := smoke(t, "buffer ablation").(BufSizeAblationResult)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	if err := rows.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, rows.Render())
	}
}

func TestIncrementalAblationShape(t *testing.T) {
	rows := smoke(t, "incremental ablation").(IncrementalAblationResult)
	if err := rows.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, rows.Render())
	}
}

func TestWsizeAblationShape(t *testing.T) {
	rows := smoke(t, "wsize ablation").(WsizeAblationResult)
	if err := rows.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, rows.Render())
	}
}
