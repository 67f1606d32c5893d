// Package taxonomy encodes the paper's three figures as data: the spectrum
// of learned indexes (Figure 1), the taxonomy tree classifying one- and
// multi-dimensional learned indexes (Figure 2), and the evolution timeline
// with lineage edges (Figure 3). The catalog lists the surveyed systems
// with their classification coordinates; entries implemented in this
// repository carry the implementing package so the figures can be
// regenerated from code (experiments E1–E3).
package taxonomy

import (
	"fmt"
	"sort"
	"strings"
)

// Dimensionality of the indexed space.
type Dimensionality string

// Dimensionality values.
const (
	OneDim   Dimensionality = "1-D"
	MultiDim Dimensionality = "multi-D"
)

// Mutability per the taxonomy's first split.
type Mutability string

// Mutability values.
const (
	Immutable Mutability = "immutable"
	Mutable   Mutability = "mutable"
)

// Layout per the fixed-vs-dynamic data layout split.
type Layout string

// Layout values (immutable indexes are fixed by definition).
const (
	FixedLayout   Layout = "fixed"
	DynamicLayout Layout = "dynamic"
)

// Kind is the pure-vs-hybrid spectrum position (Figure 1).
type Kind string

// Kind values.
const (
	Pure   Kind = "pure"
	Hybrid Kind = "hybrid"
)

// InsertStrategy for mutable pure indexes.
type InsertStrategy string

// InsertStrategy values.
const (
	NoInserts   InsertStrategy = "-"
	InPlace     InsertStrategy = "in-place"
	DeltaBuffer InsertStrategy = "delta-buffer"
)

// Space handling for multi-dimensional indexes.
type Space string

// Space values.
const (
	NotApplicable Space = "-"
	Projected     Space = "projected"
	Native        Space = "native"
)

// Entry is one surveyed system.
type Entry struct {
	Name       string
	Year       int
	Dim        Dimensionality
	Mutability Mutability
	Layout     Layout
	Kind       Kind
	Insert     InsertStrategy
	Space      Space
	// HybridBase names the traditional component of hybrid indexes.
	HybridBase string
	// Concurrent marks native concurrency support (the * in Figure 2).
	Concurrent bool
	// Package is the implementing package in this repository ("" if the
	// system is catalogued but not implemented here).
	Package string
	// Influences lists earlier entries this system builds on (Figure 3
	// lineage edges).
	Influences []string
}

// Catalog returns the surveyed systems. The list covers every taxonomy
// branch the paper names, with one or more implemented representatives per
// populated branch.
func Catalog() []Entry {
	return []Entry{
		// --- 1-D immutable pure -------------------------------------------
		{Name: "RMI", Year: 2018, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: NotApplicable, Package: "internal/rmi"},
		{Name: "RadixSpline", Year: 2020, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: NotApplicable, Package: "internal/radixspline", Influences: []string{"RMI"}},
		{Name: "Hist-Tree", Year: 2021, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: NotApplicable, Package: "internal/histtree", Influences: []string{"RMI"}},
		{Name: "PLEX", Year: 2021, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: NotApplicable, Influences: []string{"RadixSpline"}},
		{Name: "Shift-Table", Year: 2021, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: NotApplicable, Influences: []string{"RMI"}},
		{Name: "CDFShop", Year: 2020, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: NotApplicable, Influences: []string{"RMI"}},
		{Name: "LSI", Year: 2022, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: NotApplicable, Influences: []string{"RadixSpline"}},

		// --- 1-D immutable hybrid -----------------------------------------
		{Name: "Hybrid-RMI", Year: 2018, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Hybrid, Insert: NoInserts, Space: NotApplicable, HybridBase: "B-tree", Package: "internal/rmi", Influences: []string{"RMI"}},
		{Name: "Learned-BF", Year: 2018, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Hybrid, Insert: NoInserts, Space: NotApplicable, HybridBase: "Bloom filter", Package: "internal/lbf", Influences: []string{"RMI"}},
		{Name: "Sandwiched-BF", Year: 2018, Dim: OneDim, Mutability: Immutable, Layout: FixedLayout, Kind: Hybrid, Insert: NoInserts, Space: NotApplicable, HybridBase: "Bloom filter", Package: "internal/lbf", Influences: []string{"Learned-BF"}},
		{Name: "IFB-tree", Year: 2019, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Hybrid, Insert: InPlace, Space: NotApplicable, HybridBase: "B-tree", Package: "internal/btree", Influences: []string{"RMI"}},

		// --- 1-D mutable pure, fixed layout, delta buffer ------------------
		{Name: "PGM-index", Year: 2020, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Pure, Insert: DeltaBuffer, Space: NotApplicable, Package: "internal/pgm", Influences: []string{"RMI", "FITing-tree"}},
		{Name: "FITing-tree", Year: 2019, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Pure, Insert: DeltaBuffer, Space: NotApplicable, Package: "internal/fiting", Influences: []string{"RMI"}},
		{Name: "XIndex", Year: 2020, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Pure, Insert: DeltaBuffer, Space: NotApplicable, Concurrent: true, Package: "internal/xindex", Influences: []string{"RMI"}},
		{Name: "SIndex", Year: 2020, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Pure, Insert: DeltaBuffer, Space: NotApplicable, Concurrent: true, Influences: []string{"XIndex"}},
		{Name: "FINEdex", Year: 2021, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Pure, Insert: DeltaBuffer, Space: NotApplicable, Concurrent: true, Influences: []string{"XIndex"}},

		// --- 1-D mutable pure, dynamic layout, in-place --------------------
		{Name: "ALEX", Year: 2020, Dim: OneDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: InPlace, Space: NotApplicable, Package: "internal/alex", Influences: []string{"RMI"}},
		{Name: "LIPP", Year: 2021, Dim: OneDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: InPlace, Space: NotApplicable, Package: "internal/lipp", Influences: []string{"ALEX"}},
		{Name: "APEX", Year: 2021, Dim: OneDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: InPlace, Space: NotApplicable, Concurrent: true, Influences: []string{"ALEX"}},
		{Name: "CARMI", Year: 2022, Dim: OneDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: InPlace, Space: NotApplicable, Influences: []string{"RMI", "ALEX"}},
		{Name: "SALI", Year: 2023, Dim: OneDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: InPlace, Space: NotApplicable, Concurrent: true, Influences: []string{"LIPP"}},
		{Name: "NFL", Year: 2022, Dim: OneDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: InPlace, Space: NotApplicable, Influences: []string{"LIPP"}},

		// --- 1-D mutable hybrid --------------------------------------------
		{Name: "BOURBON", Year: 2020, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Hybrid, Insert: DeltaBuffer, Space: NotApplicable, HybridBase: "LSM-tree", Package: "internal/sst", Influences: []string{"RMI"}},
		{Name: "S3", Year: 2019, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Hybrid, Insert: InPlace, Space: NotApplicable, HybridBase: "Skip list", Package: "internal/skiplist", Influences: []string{"RMI"}},
		{Name: "Ada-BF", Year: 2019, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Hybrid, Insert: DeltaBuffer, Space: NotApplicable, HybridBase: "Bloom filter", Influences: []string{"Learned-BF"}},
		{Name: "PLBF", Year: 2020, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Hybrid, Insert: DeltaBuffer, Space: NotApplicable, HybridBase: "Bloom filter", Package: "internal/lbf", Influences: []string{"Learned-BF", "Sandwiched-BF"}},
		{Name: "SNARF", Year: 2022, Dim: OneDim, Mutability: Mutable, Layout: FixedLayout, Kind: Hybrid, Insert: DeltaBuffer, Space: NotApplicable, HybridBase: "Range filter", Influences: []string{"PLBF"}},

		// --- multi-D immutable pure ----------------------------------------
		{Name: "ZM-index", Year: 2019, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: Projected, Package: "internal/zm", Influences: []string{"RMI"}},
		{Name: "ML-Index", Year: 2020, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: Projected, Package: "internal/mlindex", Influences: []string{"ZM-index"}},
		{Name: "Flood", Year: 2020, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: Native, Package: "internal/flood", Influences: []string{"RMI"}},
		{Name: "Tsunami", Year: 2020, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: Native, Influences: []string{"Flood"}},
		{Name: "Learned-Z (instance-opt)", Year: 2022, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Pure, Insert: NoInserts, Space: Projected, Influences: []string{"ZM-index"}},

		// --- multi-D immutable hybrid ----------------------------------------
		{Name: "Qd-tree", Year: 2020, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Hybrid, Insert: NoInserts, Space: Native, HybridBase: "Partition tree", Package: "internal/qdtree", Influences: []string{"Flood"}},
		{Name: "SPRIG", Year: 2021, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Hybrid, Insert: NoInserts, Space: Native, HybridBase: "Grid", Influences: []string{"ZM-index"}},
		{Name: "CompressLBF", Year: 2021, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Hybrid, Insert: NoInserts, Space: Projected, HybridBase: "Bloom filter", Influences: []string{"Learned-BF"}},
		{Name: "LMI (metric)", Year: 2021, Dim: MultiDim, Mutability: Immutable, Layout: FixedLayout, Kind: Hybrid, Insert: NoInserts, Space: Native, HybridBase: "Metric tree", Influences: []string{"RMI"}},

		// --- multi-D mutable, fixed layout -----------------------------------
		{Name: "Period-Index", Year: 2019, Dim: MultiDim, Mutability: Mutable, Layout: FixedLayout, Kind: Pure, Insert: InPlace, Space: Native, Influences: []string{"RMI"}},
		{Name: "GLIN", Year: 2022, Dim: MultiDim, Mutability: Mutable, Layout: FixedLayout, Kind: Hybrid, Insert: DeltaBuffer, Space: Projected, HybridBase: "B-tree", Influences: []string{"ZM-index"}},
		{Name: "SLBRIN", Year: 2023, Dim: MultiDim, Mutability: Mutable, Layout: FixedLayout, Kind: Hybrid, Insert: DeltaBuffer, Space: Projected, HybridBase: "BRIN", Influences: []string{"ZM-index"}},

		// --- multi-D mutable, dynamic layout ---------------------------------
		{Name: "LISA", Year: 2020, Dim: MultiDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: DeltaBuffer, Space: Projected, Package: "internal/lisa", Influences: []string{"ZM-index"}},
		{Name: "AI+R-tree", Year: 2022, Dim: MultiDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Hybrid, Insert: InPlace, Space: Native, HybridBase: "R-tree", Package: "internal/rtree", Influences: []string{"RMI"}},
		{Name: "RW-Tree", Year: 2022, Dim: MultiDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Hybrid, Insert: InPlace, Space: Native, HybridBase: "R-tree", Influences: []string{"AI+R-tree"}},
		{Name: "RLR-Tree", Year: 2023, Dim: MultiDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Hybrid, Insert: InPlace, Space: Native, HybridBase: "R-tree", Influences: []string{"RW-Tree"}},
		{Name: "PLATON", Year: 2023, Dim: MultiDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Hybrid, Insert: InPlace, Space: Native, HybridBase: "R-tree", Influences: []string{"Qd-tree"}},
		{Name: "Waffle", Year: 2022, Dim: MultiDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: InPlace, Space: Native, Influences: []string{"Flood"}},
		{Name: "LMSFC", Year: 2023, Dim: MultiDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Pure, Insert: DeltaBuffer, Space: Projected, Influences: []string{"ZM-index", "LISA"}},
		{Name: "WISK", Year: 2023, Dim: MultiDim, Mutability: Mutable, Layout: DynamicLayout, Kind: Hybrid, Insert: DeltaBuffer, Space: Native, HybridBase: "Grid", Influences: []string{"Flood", "Qd-tree"}},
	}
}

// Implemented returns the catalog entries implemented in this repository.
func Implemented() []Entry {
	var out []Entry
	for _, e := range Catalog() {
		if e.Package != "" {
			out = append(out, e)
		}
	}
	return out
}

// ByName returns the entry with the given name.
func ByName(name string) (Entry, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Spectrum renders the Figure 1 reproduction: the pure-vs-hybrid spectrum
// with the catalog's systems placed on it.
func Spectrum() string {
	var pure1, hyb1, pureM, hybM []string
	for _, e := range Catalog() {
		label := e.Name
		if e.Package != "" {
			label += " [impl]"
		}
		switch {
		case e.Dim == OneDim && e.Kind == Pure:
			pure1 = append(pure1, label)
		case e.Dim == OneDim:
			hyb1 = append(hyb1, label+" ("+e.HybridBase+")")
		case e.Kind == Pure:
			pureM = append(pureM, label)
		default:
			hybM = append(hybM, label+" ("+e.HybridBase+")")
		}
	}
	var b strings.Builder
	b.WriteString("Figure 1 — Spectrum of learned index structures\n")
	b.WriteString("  Traditional indexes <──────────────────────────> Pure learned indexes\n\n")
	b.WriteString("  PURE (replace the traditional structure)\n")
	b.WriteString("    1-D:     " + strings.Join(pure1, ", ") + "\n")
	b.WriteString("    multi-D: " + strings.Join(pureM, ", ") + "\n\n")
	b.WriteString("  HYBRID (ML model + traditional structure)\n")
	b.WriteString("    1-D:     " + strings.Join(hyb1, ", ") + "\n")
	b.WriteString("    multi-D: " + strings.Join(hybM, ", ") + "\n")
	return b.String()
}

// Tree renders the Figure 2 reproduction: the taxonomy tree with every
// populated branch and the systems in it ([impl] marks entries implemented
// here, * marks native concurrency, as in the paper).
func Tree() string {
	type branchKey struct {
		dim    Dimensionality
		mut    Mutability
		layout Layout
		kind   Kind
		insert InsertStrategy
		space  Space
	}
	branches := map[branchKey][]string{}
	for _, e := range Catalog() {
		k := branchKey{e.Dim, e.Mutability, e.Layout, e.Kind, e.Insert, e.Space}
		label := e.Name
		if e.Concurrent {
			label += "*"
		}
		if e.Package != "" {
			label += " [impl]"
		}
		if e.Kind == Hybrid && e.HybridBase != "" {
			label += " <" + e.HybridBase + ">"
		}
		branches[k] = append(branches[k], label)
	}
	var b strings.Builder
	b.WriteString("Figure 2 — Taxonomy of learned indexes\n")
	b.WriteString("(* = native concurrency; [impl] = implemented in this repository)\n\n")
	for _, dim := range []Dimensionality{OneDim, MultiDim} {
		b.WriteString(string(dim) + "\n")
		for _, mut := range []Mutability{Immutable, Mutable} {
			b.WriteString("├── " + string(mut) + "\n")
			layouts := []Layout{FixedLayout}
			if mut == Mutable {
				layouts = []Layout{FixedLayout, DynamicLayout}
			}
			for _, lay := range layouts {
				if mut == Mutable {
					b.WriteString("│   ├── " + string(lay) + " data layout\n")
				}
				for _, kind := range []Kind{Pure, Hybrid} {
					var lines []string
					for _, ins := range []InsertStrategy{NoInserts, InPlace, DeltaBuffer} {
						for _, sp := range []Space{NotApplicable, Projected, Native} {
							k := branchKey{dim, mut, lay, kind, ins, sp}
							if names, ok := branches[k]; ok {
								sort.Strings(names)
								tag := ""
								if ins != NoInserts {
									tag = string(ins)
								}
								if sp != NotApplicable {
									if tag != "" {
										tag += ", "
									}
									tag += string(sp) + " space"
								}
								if tag != "" {
									tag = " (" + tag + ")"
								}
								lines = append(lines, fmt.Sprintf("│   │   │   %s: %s", tag, strings.Join(names, ", ")))
							}
						}
					}
					if len(lines) > 0 {
						b.WriteString("│   │   ├── " + string(kind) + "\n")
						for _, l := range lines {
							b.WriteString(l + "\n")
						}
					}
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Timeline renders the Figure 3 reproduction: systems grouped by year with
// lineage edges (A -> B means B builds on A).
func Timeline() string {
	byYear := map[int][]Entry{}
	years := []int{}
	for _, e := range Catalog() {
		if len(byYear[e.Year]) == 0 {
			years = append(years, e.Year)
		}
		byYear[e.Year] = append(byYear[e.Year], e)
	}
	sort.Ints(years)
	var b strings.Builder
	b.WriteString("Figure 3 — Evolution of learned indexes\n")
	b.WriteString("(□ = 1-D, △ = multi-D; '<- X' = builds on X; [impl] = implemented here)\n\n")
	for _, y := range years {
		b.WriteString(fmt.Sprintf("%d:\n", y))
		es := byYear[y]
		sort.Slice(es, func(i, j int) bool { return es[i].Name < es[j].Name })
		for _, e := range es {
			sym := "□"
			if e.Dim == MultiDim {
				sym = "△"
			}
			line := fmt.Sprintf("  %s %s", sym, e.Name)
			if e.Package != "" {
				line += " [impl]"
			}
			if len(e.Influences) > 0 {
				line += "  <- " + strings.Join(e.Influences, ", ")
			}
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// CoverageReport summarizes which taxonomy branches have an implemented
// representative (the tutorial's completeness claim, checked in tests).
func CoverageReport() map[string]int {
	cov := map[string]int{}
	for _, e := range Implemented() {
		key := fmt.Sprintf("%s/%s/%s/%s", e.Dim, e.Mutability, e.Layout, e.Kind)
		cov[key]++
	}
	return cov
}
