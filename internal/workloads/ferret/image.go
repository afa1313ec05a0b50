// Package ferret reproduces the PARSEC ferret kernel the paper evaluates
// in §6.1: content-based similarity search over an image corpus through a
// 6-stage pipeline — Input (recursive directory traversal), Segmentation,
// Feature extraction, Vectorizing, Ranking and Output. The first and last
// stages are serial; the middle four are stateless and parallel.
//
// The paper's corpus (PARSEC "native": 3,500 images plus an image
// database) is proprietary-to-the-suite bulk data; here both the query
// corpus and the ranking database are synthesized deterministically. What
// the evaluation depends on — the stage time proportions of Table 1 and
// the serial-stage structure — is preserved by construction and verified
// by the Table 1 harness.
package ferret

import (
	"fmt"

	"repro/internal/rng"
)

// Image is one grayscale query image.
type Image struct {
	ID   int
	Name string
	W, H int
	Pix  []byte
}

// Dir is a node of the synthetic directory tree the Input stage
// traverses. Leaves carry image ids; images are materialized during
// traversal, modelling the disk read.
type Dir struct {
	Name    string
	Subdirs []*Dir
	Images  []int
}

// Corpus is the full synthetic dataset: a directory tree of query images
// and the ranking database.
type Corpus struct {
	Root   *Dir
	NumImg int
	Seed   uint64
	W, H   int
	DB     *DB
}

// Params sizes the workload. The defaults are calibrated so that the
// serial stage-time split approximates Table 1 of the paper
// (input 4.5%, segment 3.6%, extract 0.35%, vectorize 16.2%,
// rank 75.3%, output 0.1%).
type Params struct {
	NumImages int
	ImageDim  int // square images, ImageDim×ImageDim pixels
	DBSize    int // entries in the ranking database
	TopK      int // matches reported per query
	Clusters  int // segmentation clusters
	VectIters int // vectorizing refinement passes
	Seed      uint64

	// DispatchBatch is how many queued images RunHyperqueue's dispatch
	// stage gathers per batched spawn wave. Zero means the default (8).
	// Result order is batch-size independent.
	DispatchBatch int
}

// DefaultParams returns the calibrated workload size (about a second of
// serial work; scale NumImages for longer runs).
func DefaultParams() Params {
	return Params{
		NumImages: 256,
		ImageDim:  48,
		DBSize:    2000,
		TopK:      10,
		Clusters:  5,
		VectIters: 1200,
		Seed:      12345,
	}
}

// NewCorpus builds the directory tree and ranking database.
func NewCorpus(p Params) *Corpus {
	r := rng.New(p.Seed)
	c := &Corpus{NumImg: p.NumImages, Seed: p.Seed, W: p.ImageDim, H: p.ImageDim}
	next := 0
	// A three-level tree with images spread over the leaves, so the
	// recursive traversal is non-trivial.
	c.Root = &Dir{Name: "corpus"}
	for next < p.NumImages {
		l1 := &Dir{Name: fmt.Sprintf("d%02d", len(c.Root.Subdirs))}
		c.Root.Subdirs = append(c.Root.Subdirs, l1)
		for b := 0; b < 4 && next < p.NumImages; b++ {
			l2 := &Dir{Name: fmt.Sprintf("%s/s%d", l1.Name, b)}
			l1.Subdirs = append(l1.Subdirs, l2)
			n := 4 + r.Intn(8)
			for k := 0; k < n && next < p.NumImages; k++ {
				l2.Images = append(l2.Images, next)
				next++
			}
		}
	}
	c.DB = newDB(p)
	return c
}

// LoadImage materializes image id — the Input stage's per-file work
// (decode + two smoothing passes stand in for JPEG decode).
func (c *Corpus) LoadImage(id int) *Image {
	r := rng.New(c.Seed*1_000_003 + uint64(id))
	img := &Image{ID: id, Name: fmt.Sprintf("img%05d.ppm", id), W: c.W, H: c.H}
	img.Pix = make([]byte, c.W*c.H)
	// Piecewise-constant patches plus noise give the segmentation stage
	// real cluster structure.
	levels := [5]byte{20, 70, 128, 180, 235}
	patch := 8 + r.Intn(8)
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			base := levels[((x/patch)+2*(y/patch)+id)%5]
			img.Pix[y*c.W+x] = base + byte(r.Intn(25))
		}
	}
	// Two box-blur passes (the "decode" cost of the input stage).
	for pass := 0; pass < 2; pass++ {
		blur(img.Pix, c.W, c.H)
	}
	return img
}

func blur(pix []byte, w, h int) {
	out := make([]byte, len(pix))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum, n int
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx >= 0 && nx < w && ny >= 0 && ny < h {
						sum += int(pix[ny*w+nx])
						n++
					}
				}
			}
			out[y*w+x] = byte(sum / n)
		}
	}
	copy(pix, out)
}

// Walk traverses the directory tree depth-first, invoking visit for every
// image id in traversal order. This is the paper's "recursive directory
// traversal that collects image files" — the natural recursive form that
// pthreads and hyperqueue versions can use directly.
func (d *Dir) Walk(visit func(id int)) {
	for _, s := range d.Subdirs {
		s.Walk(visit)
	}
	for _, id := range d.Images {
		visit(id)
	}
}

// Iterator returns a restartable, explicit-state traversal of the tree —
// the restructuring TBB and plain task-dataflow versions require (§6.1:
// "its internal state must be made explicit... tedious and error-prone").
func (d *Dir) Iterator() func() (int, bool) {
	type frame struct {
		dir *Dir
		sub int
		img int
	}
	stack := []frame{{dir: d}}
	return func() (int, bool) {
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.sub < len(f.dir.Subdirs) {
				f.sub++
				stack = append(stack, frame{dir: f.dir.Subdirs[f.sub-1]})
				continue
			}
			if f.img < len(f.dir.Images) {
				f.img++
				return f.dir.Images[f.img-1], true
			}
			stack = stack[:len(stack)-1]
		}
		return 0, false
	}
}
