package experiments

import (
	"strings"
	"testing"
)

func TestTable2Renders(t *testing.T) {
	out := Table2().Render()
	for _, want := range []string{"Xeon Phi 5110P", "8GB per coprocessor", "E5-2630"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	res := smoke(t, "table 3").(*Table3Result)
	if len(res.Rows) != len(Table3Sizes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if err := res.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, res.Render())
	}
	// The paper's headline factors at 1 GB: write ~6x vs NFS, ~30x vs
	// scp; read ~3x vs NFS, ~22x vs scp. Accept the same order.
	last := res.Rows[len(res.Rows)-1]
	if f := ratio(last.NFSWrite, last.SnapifyIOWrite); f < 3 || f > 12 {
		t.Errorf("1GB write vs NFS = %.1fx, paper reports ~6x", f)
	}
	if f := ratio(last.SCPWrite, last.SnapifyIOWrite); f < 12 || f > 60 {
		t.Errorf("1GB write vs scp = %.1fx, paper reports ~30x", f)
	}
	if f := ratio(last.NFSRead, last.SnapifyIORead); f < 1.5 || f > 8 {
		t.Errorf("1GB read vs NFS = %.1fx, paper reports ~3x", f)
	}
	if f := ratio(last.SCPRead, last.SnapifyIORead); f < 8 || f > 45 {
		t.Errorf("1GB read vs scp = %.1fx, paper reports ~22x", f)
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	res := smoke(t, "table 4").(*Table4Result)
	if len(res.Rows) != len(Table4Sizes) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if err := res.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, res.Render())
	}
}

func TestFig9ShapeMatchesPaper(t *testing.T) {
	res := smoke(t, "fig 9").(*Fig9Result)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if err := res.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, res.Render())
	}
}

func TestFig10ShapeMatchesPaper(t *testing.T) {
	res := smoke(t, "fig 10").(*Fig10Result)
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if err := res.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, res.Render())
	}
}

func TestFig11ShapeMatchesPaper(t *testing.T) {
	res := smoke(t, "fig 11").(*Fig11Result)
	if len(res.Rows) != 9 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if err := res.CheckShape(); err != nil {
		t.Errorf("%v\n%s", err, res.Render())
	}
}
