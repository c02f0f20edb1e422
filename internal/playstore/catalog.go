package playstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/stats"
)

// ModelInstance is one model file shipped inside one app. Instances of the
// same SpecIndex carry byte-identical payloads, which is what makes the
// paper's checksum dedup find only ~19% unique models.
type ModelInstance struct {
	// SpecIndex indexes Snapshot.Specs.
	SpecIndex int
	// Framework is the shipping format ("tflite", "caffe", ...).
	Framework string
	// Encrypted ships the file XOR-obfuscated so signature validation
	// fails, modelling the protected models of Section 8.2.
	Encrypted bool
	// AssetDir is the directory under assets/ the files land in.
	AssetDir string
}

// App is one store listing.
type App struct {
	Package   string
	Title     string
	Category  Category
	Rank      int // 1-based chart position within the category
	Downloads int64
	Rating    float64

	// Models are the DNN payloads in the base APK (the paper found none
	// distributed via OBB or asset packs).
	Models []ModelInstance
	// Frameworks lists the ML framework libraries the app links
	// (detectable even when models are encrypted or lazily downloaded).
	Frameworks []string
	// CloudAPIs lists the cloud ML API families invoked from code.
	CloudAPIs []string
	// LazyModelDownload marks apps fetching models outside Play delivery.
	LazyModelDownload bool
	// Acceleration trace flags (Section 6.3).
	UsesNNAPI, UsesXNNPACK, UsesSNPE bool
}

// HasML reports whether the app shows any ML signal (framework library,
// model payload or cloud API usage).
func (a *App) HasML() bool {
	return len(a.Models) > 0 || len(a.Frameworks) > 0 || len(a.CloudAPIs) > 0
}

// Snapshot is a fully generated store state at one crawl date.
type Snapshot struct {
	Label string
	Date  string
	Apps  []*App
	// Specs is the unique-model pool; instances reference it by index.
	Specs []zoo.Spec
	// SpecFramework fixes each unique model's shipping format (duplicates
	// of a model always ship in the same format, as real copied files do).
	SpecFramework []string

	cfg Config

	// files caches encoded model file sets. Both snapshots of a study
	// share Specs and SpecFramework, so they share one cache too.
	files *modelFileCache

	// pkgIndex accelerates AppByPackage for concurrent store clients; it
	// is built lazily once generation has finished mutating Apps.
	pkgOnce  sync.Once
	pkgIndex map[string]*App
}

// modelFileCache single-flights model encoding per (spec, format):
// concurrent builders of the same file set wait on the first instead of
// serialising every encode behind one lock, and builds of distinct file
// sets proceed in parallel — the lock only guards the map.
type modelFileCache struct {
	mu      sync.Mutex
	entries map[fileKey]*fileCacheEntry
}

// fileKey names one encoded file set: a spec in one shipping format.
type fileKey struct {
	spec      int
	framework string
}

type fileCacheEntry struct {
	once sync.Once
	fs   formats.FileSet
	err  error
}

func newModelFileCache() *modelFileCache {
	return &modelFileCache{entries: map[fileKey]*fileCacheEntry{}}
}

// AppByPackage returns the app with the given package name.
func (s *Snapshot) AppByPackage(pkg string) (*App, bool) {
	s.pkgOnce.Do(func() {
		s.pkgIndex = make(map[string]*App, len(s.Apps))
		for _, a := range s.Apps {
			s.pkgIndex[a.Package] = a
		}
	})
	a, ok := s.pkgIndex[pkg]
	return a, ok
}

// TopChart returns the category's apps in rank order, capped at n.
func (s *Snapshot) TopChart(cat Category, n int) []*App {
	var out []*App
	for _, a := range s.Apps {
		if a.Category == cat {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Charts lists every category's top chart, depth apps deep: categories in
// Categories order, apps in rank order. It is the order a crawl of the
// store visits apps in, and at scales up to 1 it is Apps' own order.
func (s *Snapshot) Charts(depth int) []*App {
	out := make([]*App, 0, len(s.Apps))
	for _, c := range Categories() {
		out = append(out, s.TopChart(c, depth)...)
	}
	return out
}

// ModelCount returns the total number of model instances in the snapshot.
func (s *Snapshot) ModelCount() int {
	n := 0
	for _, a := range s.Apps {
		n += len(a.Models)
	}
	return n
}

// Study is the pair of snapshots the paper collects 12 months apart.
type Study struct {
	Snap20 *Snapshot // 14th Feb 2020
	Snap21 *Snapshot // 4th Apr 2021
}

// GenerateStudy builds both snapshots from one seed. The 2021 snapshot is
// generated first; the 2020 snapshot is reconstructed by reversing the
// per-category churn of Figure 5 (dropping the "added" instances and
// re-adding the "removed" ones from a 2020-only model pool).
func GenerateStudy(cfg Config) (*Study, error) {
	if cfg.Scale <= 0 || cfg.AppsPerCategory <= 0 {
		return nil, fmt.Errorf("playstore: invalid config (start from DefaultConfig)")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{cfg: cfg, rng: rng}
	snap21, err := g.generate21()
	if err != nil {
		return nil, err
	}
	snap20, err := g.derive20(snap21)
	if err != nil {
		return nil, err
	}
	return &Study{Snap20: snap20, Snap21: snap21}, nil
}

type generator struct {
	cfg Config
	rng *rand.Rand

	// specMeta tracks which spec indices are 2021-era additions vs the
	// pre-2020 pool, and the 2020-only pool appended for removed models.
	oldSpecCount  int // specs existing already in 2020
	spec20Only    []int
	addedByApp    map[string][]int // package -> indices into app.Models added after 2020
	removedByCat  map[Category][]ModelInstance
	allSpecs      []zoo.Spec
	specFramework []string
}

// taskForInstances expands the Table 3 task mix into a scaled instance
// plan: a slice of tasks with repetition, plus ambiguous entries.
func (g *generator) instancePlan() []zoo.Task {
	var plan []zoo.Task
	// Deterministic task order.
	tasks := zoo.AllTasks()
	for _, t := range tasks {
		n := g.cfg.scaled(zoo.PaperTaskCounts[t])
		for i := 0; i < n; i++ {
			plan = append(plan, t)
		}
	}
	for i := 0; i < g.cfg.scaled(zoo.PaperUnidentified); i++ {
		plan = append(plan, zoo.TaskUnknown)
	}
	g.rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// buildSpecPool creates the unique-model pool for 2021 (sized to
// UniqueModels21) plus a 2020-only pool, with fine-tuned relatives and
// quantisation variants at the configured fractions.
func (g *generator) buildSpecPool(taskPlan []zoo.Task) (specOfTask map[zoo.Task][]int) {
	cfg := g.cfg
	nUnique := cfg.scaled(cfg.UniqueModels21)
	if nUnique < 1 {
		nUnique = 1
	}
	// Count instances per task to size per-task unique pools.
	perTask := map[zoo.Task]int{}
	for _, t := range taskPlan {
		perTask[t]++
	}
	total := len(taskPlan)
	specOfTask = map[zoo.Task][]int{}
	// Deterministic task iteration order.
	taskOrder := append([]zoo.Task{zoo.TaskUnknown}, zoo.AllTasks()...)

	nextSeed := cfg.Seed*1000 + 1
	addSpec := func(s zoo.Spec) int {
		idx := len(g.allSpecs)
		g.allSpecs = append(g.allSpecs, s)
		g.specFramework = append(g.specFramework, "")
		return idx
	}
	pairsCreated := 0
	for _, t := range taskOrder {
		cnt := perTask[t]
		if cnt == 0 {
			continue
		}
		k := nUnique * cnt / total
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			spec := zoo.Spec{
				Task:   t,
				Seed:   nextSeed,
				Hinted: g.rng.Float64() < cfg.HintedNameFrac,
				Opts:   zoo.DefaultOptsFor(t, g.rng),
			}
			nextSeed++
			if t == zoo.TaskUnknown {
				spec.Task = zoo.TaskObjectDetection // generic trunk underneath
				spec.Ambiguous = true
			}
			// Quantisation variants.
			switch r := g.rng.Float64(); {
			case r < cfg.FullQuantFrac:
				spec.Quantized = true
			case r < cfg.FullQuantFrac+cfg.WeightQuantFrac:
				spec.WeightQuantized = true
			}
			// Weight sparsity around the configured mean.
			spec.SparsityFrac = cfg.MeanSparsity * (0.5 + g.rng.Float64())
			idx := addSpec(spec)
			specOfTask[t] = append(specOfTask[t], idx)
			// Fine-tuned relative of the previous spec of this task. Both
			// the base and the derivative count as "sharing >= 20%", so
			// the pair-creation rate is half the target sharing fraction.
			if len(specOfTask[t]) >= 2 && g.rng.Float64() < cfg.FineTunedFrac/2 {
				base := g.allSpecs[specOfTask[t][len(specOfTask[t])-2]]
				if !base.Ambiguous && base.BaseSeed == 0 {
					ft := base
					ft.Seed = nextSeed
					nextSeed++
					ft.BaseSeed = base.Seed
					if g.rng.Float64() < cfg.SmallDeltaFrac/cfg.FineTunedFrac {
						ft.FineTuneLayers = 1 + g.rng.Intn(3) // differs in <= 3 layers
					} else {
						ft.FineTuneLayers = 4 + g.rng.Intn(4)
					}
					fidx := addSpec(ft)
					specOfTask[t] = append(specOfTask[t], fidx)
					pairsCreated++
					i++ // the derivative consumes a unique slot
				}
			}
		}
	}
	// Small scales can roll zero pairs; the paper's 9.02% sharing finding
	// needs at least one fine-tuned family to exist.
	if pairsCreated == 0 && cfg.FineTunedFrac > 0 {
		for _, t := range zoo.AllTasks() {
			pool := specOfTask[t]
			if len(pool) == 0 {
				continue
			}
			base := g.allSpecs[pool[0]]
			if base.Ambiguous || base.BaseSeed != 0 {
				continue
			}
			ft := base
			ft.Seed = nextSeed
			nextSeed++
			ft.BaseSeed = base.Seed
			ft.FineTuneLayers = 2
			specOfTask[t] = append(specOfTask[t], addSpec(ft))
			break
		}
	}
	g.oldSpecCount = len(g.allSpecs)
	return specOfTask
}

// assignFrameworks fixes each unique model's shipping format so the
// instance-level mix approximates Table 2 (tflite 86.2%, caffe 10.6%,
// ncnn 2.8%, tf 0.3%, snpe 0.18%).
func (g *generator) assignFrameworks() {
	var names []string
	var weights []int
	for _, fs := range frameworkShare21 {
		names = append(names, fs.Name)
		weights = append(weights, fs.Count)
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	for i := range g.allSpecs {
		if g.specFramework[i] != "" {
			continue
		}
		r := g.rng.Intn(total)
		for j, w := range weights {
			if r < w {
				g.specFramework[i] = names[j]
				break
			}
			r -= w
		}
		if g.specFramework[i] == "" {
			g.specFramework[i] = "tflite"
		}
	}
}

func (g *generator) generate21() (*Snapshot, error) {
	cfg := g.cfg
	plan := g.instancePlan()
	specOfTask := g.buildSpecPool(plan)
	g.assignFrameworks()

	// Per-category scaled model targets.
	cats := Categories()
	catTargets := make(map[Category]int, len(cats))
	planTotal := len(plan)
	churnTotal := 0
	for _, c := range cats {
		churnTotal += categoryChurn[c].Total21
	}
	assigned := 0
	for _, c := range cats {
		n := planTotal * categoryChurn[c].Total21 / churnTotal
		catTargets[c] = n
		assigned += n
	}
	// Largest categories soak up rounding remainder.
	for i := 0; assigned < planTotal; i++ {
		catTargets[cats[i%len(cats)]]++
		assigned++
	}

	// Instance construction: walk the shuffled plan, draw a spec for the
	// task. Every pooled spec is covered at least once (a unique model
	// exists because gaugeNN found it somewhere); the remaining draws
	// follow a Zipf so duplication is heavy-tailed and ~80% of instances
	// share their checksum with another app.
	zipfCache := map[int]*stats.Zipf{}
	covered := map[zoo.Task]int{}
	drawSpec := func(t zoo.Task) int {
		pool := specOfTask[t]
		if len(pool) == 0 {
			// Fall back to any pool (tiny scales).
			for _, tt := range append([]zoo.Task{zoo.TaskUnknown}, zoo.AllTasks()...) {
				if len(specOfTask[tt]) > 0 {
					t, pool = tt, specOfTask[tt]
					break
				}
			}
		}
		if covered[t] < len(pool) {
			idx := pool[covered[t]]
			covered[t]++
			return idx
		}
		z, ok := zipfCache[len(pool)]
		if !ok {
			z, _ = stats.NewZipf(g.rng, 1.05, len(pool))
			zipfCache[len(pool)] = z
		}
		return pool[z.Rank()-1]
	}

	type pendingInstance struct {
		spec  int
		added bool // arrived after the 2020 snapshot
	}
	perCat := map[Category][]pendingInstance{}
	planIdx := 0
	for _, c := range cats {
		ch := categoryChurn[c]
		target := catTargets[c]
		addTarget := int(float64(target)*float64(ch.Added)/float64(maxInt(1, ch.Total21)) + 0.5)
		for i := 0; i < target && planIdx < len(plan); i++ {
			inst := pendingInstance{spec: drawSpec(plan[planIdx]), added: i < addTarget}
			// Added instances prefer new specs (indices past the early
			// pool), keeping the 2020 unique count near its target.
			perCat[c] = append(perCat[c], inst)
			planIdx++
		}
	}

	// App skeletons per category.
	snap := &Snapshot{
		Label: "snapshot-2021",
		Date:  "2021-04-04",
		cfg:   cfg,
		files: newModelFileCache(),
	}
	appsPerCat := cfg.scaled(cfg.AppsPerCategory)
	zipfDl, err := stats.NewZipf(g.rng, 1.1, maxInt(2, appsPerCat))
	if err != nil {
		return nil, err
	}
	_ = zipfDl
	for _, c := range cats {
		for rank := 1; rank <= appsPerCat; rank++ {
			pkg := fmt.Sprintf("com.%s.app%03d", sanitizeCat(c), rank)
			snap.Apps = append(snap.Apps, &App{
				Package:   pkg,
				Title:     fmt.Sprintf("%s App %d", titleCase(c), rank),
				Category:  c,
				Rank:      rank,
				Downloads: stats.DownloadsForRank(rank, 5e9*cfg.Scale+1e6, 1.1),
				Rating:    3.0 + g.rng.Float64()*2.0,
			})
		}
	}

	// Distribute model instances to ML apps per category.
	mlAppTarget := cfg.scaled(cfg.AppsWithModels21)
	totalModels := 0
	for _, c := range cats {
		totalModels += len(perCat[c])
	}
	g.addedByApp = map[string][]int{}
	for _, c := range cats {
		insts := perCat[c]
		if len(insts) == 0 {
			continue
		}
		nApps := mlAppTarget * len(insts) / maxInt(1, totalModels)
		if nApps < 1 {
			nApps = 1
		}
		chart := snap.TopChart(c, 0)
		// ML-powered apps skew popular: take from the top half of the chart.
		if nApps > len(chart) {
			nApps = len(chart)
		}
		mlApps := make([]*App, 0, nApps)
		for i := 0; i < nApps; i++ {
			mlApps = append(mlApps, chart[(i*2)%len(chart)])
		}
		for i, inst := range insts {
			app := mlApps[i%len(mlApps)]
			fw := g.specFramework[inst.spec]
			mi := ModelInstance{
				SpecIndex: inst.spec,
				Framework: fw,
				AssetDir:  "models",
			}
			app.Models = append(app.Models, mi)
			if !containsStr(app.Frameworks, fw) {
				app.Frameworks = append(app.Frameworks, fw)
			}
			if inst.added {
				g.addedByApp[app.Package] = append(g.addedByApp[app.Package], len(app.Models)-1)
			}
		}
	}

	// Framework-only apps: libraries present, models encrypted or lazily
	// downloaded (Table 2's apps-with-frameworks minus apps-with-models).
	fwOnly := cfg.scaled(cfg.AppsWithFw21) - cfg.scaled(cfg.AppsWithModels21)
	fwNames := []string{"tflite", "caffe", "ncnn"}
	candidates := g.appsWithoutML(snap)
	for i := 0; i < fwOnly && i < len(candidates); i++ {
		app := candidates[i]
		app.Frameworks = append(app.Frameworks, fwNames[g.rng.Intn(len(fwNames))])
		if g.rng.Float64() < 0.5 {
			// Encrypted model payload: file present, validation will fail.
			spec := g.rng.Intn(len(g.allSpecs))
			app.Models = append(app.Models, ModelInstance{
				SpecIndex: spec,
				Framework: g.specFramework[spec],
				Encrypted: true,
				AssetDir:  "models",
			})
		} else {
			app.LazyModelDownload = true
		}
	}

	// Cloud API apps (Figure 15): drawn independently of on-device ML.
	g.assignCloudAPIs(snap)
	// Acceleration traces (Section 6.3).
	g.assignAcceleration(snap)

	snap.Specs = g.allSpecs
	snap.SpecFramework = g.specFramework

	// Record removed-model churn for derive20.
	g.removedByCat = map[Category][]ModelInstance{}
	spec20Seed := cfg.Seed*5000 + 7
	n20Only := cfg.scaled(cfg.UniqueModels20) / 4 // ~29 of 129 at full scale
	if n20Only < 1 {
		n20Only = 1
	}
	for i := 0; i < n20Only; i++ {
		t := zoo.AllTasks()[g.rng.Intn(len(zoo.AllTasks()))]
		spec := zoo.Spec{
			Task:   t,
			Seed:   spec20Seed,
			Hinted: g.rng.Float64() < cfg.HintedNameFrac,
			Opts:   zoo.DefaultOptsFor(t, g.rng),
		}
		spec20Seed++
		idx := len(g.allSpecs)
		g.allSpecs = append(g.allSpecs, spec)
		fw := "tflite"
		r := g.rng.Float64()
		acc := 0.0
		for _, s := range removedFrameworkShare {
			acc += s.Weight
			if r < acc {
				fw = s.Name
				break
			}
		}
		g.specFramework = append(g.specFramework, fw)
		g.spec20Only = append(g.spec20Only, idx)
	}
	for _, c := range cats {
		nRem := cfg.scaledAllowZero(categoryChurn[c].Removed)
		for i := 0; i < nRem; i++ {
			idx := g.spec20Only[g.rng.Intn(len(g.spec20Only))]
			g.removedByCat[c] = append(g.removedByCat[c], ModelInstance{
				SpecIndex: idx,
				Framework: g.specFramework[idx],
				AssetDir:  "models",
			})
		}
	}
	// The 2021 snapshot shares the enlarged spec table (2020-only specs are
	// simply unreferenced by 2021 apps).
	snap.Specs = g.allSpecs
	snap.SpecFramework = g.specFramework
	return snap, nil
}

// derive20 reconstructs the 2020 snapshot by reversing the churn.
func (g *generator) derive20(snap21 *Snapshot) (*Snapshot, error) {
	cfg := g.cfg
	snap := &Snapshot{
		Label:         "snapshot-2020",
		Date:          "2020-02-14",
		cfg:           cfg,
		files:         snap21.files,
		Specs:         snap21.Specs,
		SpecFramework: snap21.SpecFramework,
	}
	// Copy apps, dropping post-2020 model additions.
	for _, a21 := range snap21.Apps {
		a := *a21
		a.Models = nil
		a.Frameworks = nil
		added := map[int]bool{}
		for _, mi := range g.addedByApp[a21.Package] {
			added[mi] = true
		}
		for i, m := range a21.Models {
			if added[i] || m.Encrypted {
				continue
			}
			a.Models = append(a.Models, m)
			if !containsStr(a.Frameworks, m.Framework) {
				a.Frameworks = append(a.Frameworks, m.Framework)
			}
		}
		// Cloud API adoption was 2.33x lower in 2020.
		if len(a21.CloudAPIs) > 0 && g.rng.Float64() < 1/2.33 {
			a.CloudAPIs = a21.CloudAPIs
		} else {
			a.CloudAPIs = nil
		}
		a.UsesNNAPI = a21.UsesNNAPI && g.rng.Float64() < 0.5
		a.UsesXNNPACK = false
		a.UsesSNPE = false
		a.LazyModelDownload = a21.LazyModelDownload && g.rng.Float64() < 0.6
		snap.Apps = append(snap.Apps, &a)
	}
	// Re-add removed (2020-only) models to apps in their category.
	for cat, insts := range g.removedByCat {
		chart := snap.TopChart(cat, 0)
		if len(chart) == 0 {
			continue
		}
		for i, mi := range insts {
			app := chart[(i*3)%len(chart)]
			app.Models = append(app.Models, mi)
			if !containsStr(app.Frameworks, mi.Framework) {
				app.Frameworks = append(app.Frameworks, mi.Framework)
			}
		}
	}
	// Framework-only apps of 2020 (236 - 165 = 71 scaled).
	fwOnly := cfg.scaled(cfg.AppsWithFw20) - cfg.scaled(cfg.AppsWithModels20)
	fwNames := []string{"tflite", "caffe"}
	for _, a := range g.appsWithoutML(snap) {
		if fwOnly <= 0 {
			break
		}
		a.Frameworks = append(a.Frameworks, fwNames[g.rng.Intn(len(fwNames))])
		a.LazyModelDownload = true
		fwOnly--
	}
	return snap, nil
}

func (g *generator) appsWithoutML(s *Snapshot) []*App {
	var out []*App
	for _, a := range s.Apps {
		if !a.HasML() {
			out = append(out, a)
		}
	}
	return out
}

func (g *generator) assignCloudAPIs(s *Snapshot) {
	cfg := g.cfg
	googleTarget := cfg.scaled(cfg.CloudAppsGoogle21)
	awsTarget := cfg.scaled(cfg.CloudAppsAWS21)
	var googleAPIs, awsAPIs []CloudAPI
	for _, api := range cloudAPIs {
		if api.Provider == "google" {
			googleAPIs = append(googleAPIs, api)
		} else {
			awsAPIs = append(awsAPIs, api)
		}
	}
	pickAPI := func(apis []CloudAPI) string {
		total := 0
		for _, a := range apis {
			total += a.Weight
		}
		r := g.rng.Intn(total)
		for _, a := range apis {
			if r < a.Weight {
				return a.Name
			}
			r -= a.Weight
		}
		return apis[0].Name
	}
	// Cloud apps skew towards communication/social/business categories but
	// appear everywhere; draw from the general population.
	apps := s.Apps
	used := map[string]bool{}
	assign := func(n int, apis []CloudAPI) {
		for i := 0; i < n; i++ {
			var app *App
			for tries := 0; tries < 50; tries++ {
				cand := apps[g.rng.Intn(len(apps))]
				if !used[cand.Package] {
					app = cand
					break
				}
			}
			if app == nil {
				return
			}
			used[app.Package] = true
			app.CloudAPIs = append(app.CloudAPIs, pickAPI(apis))
			if g.rng.Float64() < 0.25 { // some apps call two APIs
				second := pickAPI(apis)
				if !containsStr(app.CloudAPIs, second) {
					app.CloudAPIs = append(app.CloudAPIs, second)
				}
			}
		}
	}
	assign(googleTarget, googleAPIs)
	assign(awsTarget, awsAPIs)
}

func (g *generator) assignAcceleration(s *Snapshot) {
	cfg := g.cfg
	var mlApps []*App
	for _, a := range s.Apps {
		if len(a.Models) > 0 {
			mlApps = append(mlApps, a)
		}
	}
	if len(mlApps) == 0 {
		return
	}
	mark := func(n int, f func(*App)) {
		for i := 0; i < n; i++ {
			f(mlApps[(i*7)%len(mlApps)])
		}
	}
	mark(cfg.scaled(cfg.NNAPIApps), func(a *App) { a.UsesNNAPI = true })
	mark(cfg.XNNPACKApps, func(a *App) { a.UsesXNNPACK = true }) // 1 app even at scale
	// The SNPE apps ship both a tflite and a dlc variant of the same model
	// ("they deploy both a TFLite and dlc variants of the same model").
	nSNPE := cfg.SNPEApps
	for i := 0; i < nSNPE && i < len(mlApps); i++ {
		a := mlApps[(i*11+3)%len(mlApps)]
		a.UsesSNPE = true
		if len(a.Models) > 0 {
			twin := a.Models[0]
			twin.Framework = "snpe"
			a.Models = append(a.Models, twin)
			if !containsStr(a.Frameworks, "snpe") {
				a.Frameworks = append(a.Frameworks, "snpe")
			}
		}
	}
}

func sanitizeCat(c Category) string {
	out := make([]rune, 0, len(c))
	for _, r := range c {
		switch {
		case r >= 'A' && r <= 'Z':
			out = append(out, r+('a'-'A'))
		case r == '_':
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func titleCase(c Category) string {
	s := string(c)
	out := make([]rune, 0, len(s))
	up := true
	for _, r := range s {
		switch {
		case r == '_':
			out = append(out, ' ')
			up = true
		case up:
			out = append(out, r)
			up = false
		default:
			out = append(out, r+('a'-'A'))
		}
	}
	return string(out)
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
