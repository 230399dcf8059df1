package dataset

import (
	"testing"

	"charles/internal/engine"
	"charles/internal/sdl"
	"charles/internal/seg"
)

func TestVOCShape(t *testing.T) {
	tab := VOC(500, 1)
	if tab.NumRows() != 500 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	wantKinds := map[string]engine.Kind{
		"type_of_boat": engine.KindString, "tonnage": engine.KindInt,
		"built": engine.KindInt, "yard": engine.KindString,
		"departure_date": engine.KindDate, "departure_harbour": engine.KindString,
		"cape_arrival": engine.KindDate, "trip": engine.KindInt,
		"master": engine.KindString,
	}
	for name, kind := range wantKinds {
		c, ok := tab.ColumnByName(name)
		if !ok || c.Kind() != kind {
			t.Errorf("column %q: kind %v, want %v", name, c.Kind(), kind)
		}
	}
}

func TestVOCDeterministic(t *testing.T) {
	a, b := VOC(200, 42), VOC(200, 42)
	for c := 0; c < a.NumCols(); c++ {
		for r := 0; r < a.NumRows(); r++ {
			if !a.Column(c).Value(r).Equal(b.Column(c).Value(r)) {
				t.Fatalf("VOC not deterministic at (%d,%d)", r, c)
			}
		}
	}
	diff := VOC(200, 43)
	same := true
	for r := 0; r < 200 && same; r++ {
		if !a.Column(1).Value(r).Equal(diff.Column(1).Value(r)) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical tonnage column")
	}
}

func TestVOCSemanticInvariants(t *testing.T) {
	tab := VOC(2000, 7)
	dep := tab.MustColumn("departure_date").(*engine.DateColumn)
	arr := tab.MustColumn("cape_arrival").(*engine.DateColumn)
	trip := tab.MustColumn("trip").(*engine.IntColumn)
	ton := tab.MustColumn("tonnage").(*engine.IntColumn)
	built := tab.MustColumn("built").(*engine.IntColumn)
	for r := 0; r < tab.NumRows(); r++ {
		if arr.Int64(r) != dep.Int64(r)+trip.Int64(r) {
			t.Fatalf("row %d: arrival != departure + trip", r)
		}
		if trip.Int64(r) <= 0 {
			t.Fatalf("row %d: non-positive trip", r)
		}
		if ton.Int64(r) < 40 || ton.Int64(r) > 1300 {
			t.Fatalf("row %d: tonnage %d out of plausible range", r, ton.Int64(r))
		}
		if built.Int64(r) < 1602 || built.Int64(r) > 1794 {
			t.Fatalf("row %d: built %d outside VOC era", r, built.Int64(r))
		}
	}
}

func TestVOCPlantedDependencies(t *testing.T) {
	// HB-cuts feeds on dependencies: type↔tonnage must be far more
	// dependent than two unrelated attributes like built↔master.
	tab := VOC(10000, 3)
	ev := seg.NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	cut := func(attr string) *seg.Segmentation {
		s, ok, err := seg.InitialCut(ev, ctx, attr, seg.DefaultCutOptions())
		if err != nil || !ok {
			t.Fatalf("cut %s: %v ok=%v", attr, err, ok)
		}
		return s
	}
	typeSeg, tonSeg := cut("type_of_boat"), cut("tonnage")
	builtSeg, masterSeg := cut("built"), cut("master")
	strong, err := seg.Indep(ev, typeSeg, tonSeg)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := seg.Indep(ev, builtSeg, masterSeg)
	if err != nil {
		t.Fatal(err)
	}
	if strong >= 0.99 {
		t.Fatalf("type↔tonnage INDEP = %v, want dependent (<0.99)", strong)
	}
	if weak < 0.99 {
		t.Fatalf("built↔master INDEP = %v, want ≈1", weak)
	}
	if strong >= weak {
		t.Fatalf("dependence ordering wrong: strong %v, weak %v", strong, weak)
	}
}

func TestSkySurveyShapeAndCorrelations(t *testing.T) {
	tab := SkySurvey(5000, 2)
	if tab.NumRows() != 5000 || tab.NumCols() != 5 {
		t.Fatalf("shape = %d x %d", tab.NumRows(), tab.NumCols())
	}
	ra := tab.MustColumn("ra").(*engine.FloatColumn)
	dec := tab.MustColumn("dec").(*engine.FloatColumn)
	class := tab.MustColumn("class").(*engine.StringColumn)
	mag := tab.MustColumn("magnitude").(*engine.FloatColumn)
	var starMag, quasarMag float64
	var stars, quasars int
	for r := 0; r < tab.NumRows(); r++ {
		if v := ra.Float64(r); v < 0 || v >= 360.0001 {
			t.Fatalf("ra out of range: %v", v)
		}
		if v := dec.Float64(r); v < -90 || v > 90 {
			t.Fatalf("dec out of range: %v", v)
		}
		switch class.Str(r) {
		case "star":
			starMag += mag.Float64(r)
			stars++
		case "quasar":
			quasarMag += mag.Float64(r)
			quasars++
		}
	}
	if stars == 0 || quasars == 0 {
		t.Fatal("missing classes")
	}
	if starMag/float64(stars) >= quasarMag/float64(quasars) {
		t.Fatal("stars should be brighter (lower magnitude) than quasars")
	}
}

func TestWebLogShapeAndCorrelations(t *testing.T) {
	tab := WebLog(8000, 5)
	status := tab.MustColumn("status").(*engine.IntColumn)
	section := tab.MustColumn("section").(*engine.StringColumn)
	errRate := map[string][2]int{} // errors, total
	for r := 0; r < tab.NumRows(); r++ {
		s := section.Str(r)
		e := errRate[s]
		if status.Int64(r) >= 400 {
			e[0]++
		}
		e[1]++
		errRate[s] = e
	}
	admin, home := errRate["admin"], errRate["home"]
	if admin[1] == 0 || home[1] == 0 {
		t.Fatal("missing sections")
	}
	adminRate := float64(admin[0]) / float64(admin[1])
	homeRate := float64(home[0]) / float64(home[1])
	if adminRate <= homeRate {
		t.Fatalf("admin error rate %v should exceed home %v", adminRate, homeRate)
	}
}

func TestGaussianMixtureShape(t *testing.T) {
	tab := GaussianMixture(1000, 3, 4, 1)
	if tab.NumCols() != 4 {
		t.Fatalf("cols = %d, want 3 dims + label", tab.NumCols())
	}
	label := tab.MustColumn("label").(*engine.StringColumn)
	if label.Cardinality() != 4 {
		t.Fatalf("clusters = %d, want 4", label.Cardinality())
	}
}

func TestUniformIntsIndependent(t *testing.T) {
	tab := UniformInts(1000, 3, 100, 2)
	if tab.NumCols() != 3 || tab.NumRows() != 1000 {
		t.Fatalf("shape = %d x %d", tab.NumRows(), tab.NumCols())
	}
	col := tab.MustColumn("u0").(*engine.IntColumn)
	for r := 0; r < tab.NumRows(); r++ {
		if v := col.Int64(r); v < 0 || v >= 100 {
			t.Fatalf("value %d out of domain", v)
		}
	}
}

func TestCorrelatedPairKnob(t *testing.T) {
	indep := func(rho float64) float64 {
		tab := CorrelatedPair(8000, rho, 11)
		ev := seg.NewEvaluator(tab)
		ctx := sdl.ContextAll(tab)
		sx, _, err := seg.InitialCut(ev, ctx, "x", seg.DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		sy, _, err := seg.InitialCut(ev, ctx, "y", seg.DefaultCutOptions())
		if err != nil {
			t.Fatal(err)
		}
		v, err := seg.Indep(ev, sx, sy)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	i0, i50, i95 := indep(0), indep(0.5), indep(0.95)
	if !(i95 < i50 && i50 < i0) {
		t.Fatalf("INDEP not monotone in rho: %v %v %v", i0, i50, i95)
	}
	if i0 < 0.99 {
		t.Fatalf("rho=0 INDEP = %v, want ≈1", i0)
	}
}

func TestZipfCategoricalSkew(t *testing.T) {
	tab := ZipfCategorical(5000, 20, 1.5, 4)
	cat := tab.MustColumn("cat").(*engine.StringColumn)
	counts := engine.StringValueCountsChunked(cat, tab.AllChunked())
	max, sum := 0, 0
	for _, vc := range counts {
		if vc.Count > max {
			max = vc.Count
		}
		sum += vc.Count
	}
	if float64(max)/float64(sum) < 0.3 {
		t.Fatalf("top value share %v, want skew ≥ 0.3", float64(max)/float64(sum))
	}
	// s ≤ 1 falls back to a default exponent rather than panicking.
	if tab := ZipfCategorical(100, 5, 0.5, 1); tab.NumRows() != 100 {
		t.Fatal("fallback exponent failed")
	}
}

func TestFigure3PlantedStructure(t *testing.T) {
	tab := Figure3(10000, 1)
	ev := seg.NewEvaluator(tab)
	ctx := sdl.ContextAll(tab)
	cut := func(attr string) *seg.Segmentation {
		s, ok, err := seg.InitialCut(ev, ctx, attr, seg.DefaultCutOptions())
		if err != nil || !ok {
			t.Fatalf("cut %s", attr)
		}
		return s
	}
	ind := func(a, b *seg.Segmentation) float64 {
		v, err := seg.Indep(ev, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	s1, s2, s3, s4, s5 := cut("att1"), cut("att2"), cut("att3"), cut("att4"), cut("att5")
	strong := ind(s2, s3)
	medium := ind(s4, s5)
	weak := ind(s1, s2)
	cross := ind(s2, s4)
	if !(strong < medium && medium < weak && weak < cross) {
		t.Fatalf("dependence ladder broken: %v < %v < %v < %v expected", strong, medium, weak, cross)
	}
	if cross < 0.99 {
		t.Fatalf("cross-group INDEP = %v, want ≈1", cross)
	}
	if weak >= 0.99 {
		t.Fatalf("weak link INDEP = %v, want < 0.99 so HB-cuts composes it", weak)
	}
}

func TestNamedDispatch(t *testing.T) {
	for _, name := range []string{"voc", "sky", "weblog", "gaussian", "uniform", "figure3"} {
		tab, err := Named(name, 50, 1)
		if err != nil {
			t.Fatalf("Named(%s): %v", name, err)
		}
		if tab.NumRows() != 50 {
			t.Fatalf("Named(%s) rows = %d", name, tab.NumRows())
		}
	}
	if _, err := Named("nope", 10, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
