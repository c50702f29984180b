// Package nsvqa implements the neuro-symbolic visual question answering
// workload of Table I (Yi et al., NeurIPS 2018; Neuro|Symbolic paradigm,
// non-vector symbolic format): a neural perception stage parses the scene
// into a structured object table, and a symbolic program executor runs a
// functional question program — filter / query / count / compare with
// pre-defined typed operators like equal_color and equal_integer — over
// that table.
//
// Scenes and question programs are generated together with ground truth,
// so execution accuracy is exact by construction; the characterization
// interest is the pipeline shape: a conv-heavy neural stage feeding a
// control-flow-heavy, non-vector symbolic stage.
package nsvqa

import (
	"fmt"

	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Object attribute vocabularies.
var (
	Colors = []string{"red", "green", "blue", "yellow"}
	Shapes = []string{"cube", "sphere", "cylinder"}
	Sizes  = []string{"small", "large"}
)

// Object is one entry of the structured scene table.
type Object struct {
	Color, Shape, Size string
	X, Y               int
}

// Scene is the object table with its rendered image.
type Scene struct {
	Objects []Object
	Image   *tensor.Tensor // 1×3×H×W
}

// Config parameterizes the workload.
type Config struct {
	ImgSize   int   // rendered scene resolution; default 48
	Objects   int   // objects per scene; default 6
	Questions int   // programs executed per Run; default 8
	Seed      int64 // default 1
}

func (c *Config) defaults() {
	if c.ImgSize == 0 {
		c.ImgSize = 48
	}
	if c.Objects == 0 {
		c.Objects = 6
	}
	if c.Questions == 0 {
		c.Questions = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Workload is the NSVQA instance: a read-only model that concurrent runs
// share.
type Workload struct {
	cfg Config
	// g is the generator in its post-construction state. Runs draw their
	// scenes and questions from a clone, never from g itself.
	g   *tensor.RNG
	cnn *nn.CNN
}

// New constructs the workload.
func New(cfg Config) *Workload {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	return &Workload{
		cfg: cfg,
		g:   g,
		cnn: nn.NewCNN(g, "nsvqa.parser", nn.CNNConfig{InChannels: 3, InSize: cfg.ImgSize, Channels: []int{8, 16}, Residual: true, OutDim: 64}),
	}
}

// Name implements the workload identity.
func (w *Workload) Name() string { return "NSVQA" }

// Category is the workload's taxonomy category (Table I).
const Category = "Neuro|Symbolic"

// Category returns the taxonomy category.
func (w *Workload) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *Workload) Register(e *ops.Engine) { w.cnn.Register(e) }

// GenScene renders the random scene a Run parses: the first draw from a
// clone of the model's generator.
func (w *Workload) GenScene() Scene { return w.genScene(w.g.Clone()) }

// genScene renders a random scene drawn from g.
func (w *Workload) genScene(g *tensor.RNG) Scene {
	s := Scene{Image: tensor.New(1, 3, w.cfg.ImgSize, w.cfg.ImgSize)}
	size := w.cfg.ImgSize
	for i := 0; i < w.cfg.Objects; i++ {
		o := Object{
			Color: Colors[g.Intn(len(Colors))],
			Shape: Shapes[g.Intn(len(Shapes))],
			Size:  Sizes[g.Intn(len(Sizes))],
			X:     g.Intn(size - 8),
			Y:     g.Intn(size - 8),
		}
		s.Objects = append(s.Objects, o)
		// Rasterize: an 8×8 patch whose channel intensities encode color.
		r := float32(1+indexOf(Colors, o.Color)) / float32(len(Colors))
		extent := 4
		if o.Size == "large" {
			extent = 8
		}
		for dy := 0; dy < extent; dy++ {
			for dx := 0; dx < extent; dx++ {
				px := (o.Y+dy)*size + o.X + dx
				s.Image.Data()[px] = r
				s.Image.Data()[size*size+px] = 1 - r
				s.Image.Data()[2*size*size+px] = float32(indexOf(Shapes, o.Shape)+1) / float32(len(Shapes))
			}
		}
	}
	return s
}

func indexOf(xs []string, v string) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// Program is a sequence of typed operators executed over the scene table.
type Program struct {
	Steps []Step
}

// Step is one operator application.
type Step struct {
	Op   string // "filter_color", "filter_shape", "filter_size", "count", "exist", "query_color", "equal_integer"
	Arg  string // attribute value for filters; second operand tag otherwise
	Arg2 *Program
}

// String renders the program.
func (p Program) String() string {
	out := ""
	for i, s := range p.Steps {
		if i > 0 {
			out += " → "
		}
		out += s.Op
		if s.Arg != "" {
			out += "(" + s.Arg + ")"
		}
	}
	return out
}

// genQuestion samples a program with its ground-truth answer from g.
func (w *Workload) genQuestion(g *tensor.RNG, s Scene) (Program, string) {
	switch g.Intn(3) {
	case 0: // how many <color> objects?
		c := Colors[g.Intn(len(Colors))]
		p := Program{Steps: []Step{{Op: "filter_color", Arg: c}, {Op: "count"}}}
		n := 0
		for _, o := range s.Objects {
			if o.Color == c {
				n++
			}
		}
		return p, fmt.Sprint(n)
	case 1: // is there a <size> <shape>?
		sz := Sizes[g.Intn(len(Sizes))]
		sh := Shapes[g.Intn(len(Shapes))]
		p := Program{Steps: []Step{{Op: "filter_size", Arg: sz}, {Op: "filter_shape", Arg: sh}, {Op: "exist"}}}
		ans := "no"
		for _, o := range s.Objects {
			if o.Size == sz && o.Shape == sh {
				ans = "yes"
			}
		}
		return p, ans
	default: // equal_integer(count(color a), count(color b))
		a := Colors[g.Intn(len(Colors))]
		b := Colors[g.Intn(len(Colors))]
		sub := Program{Steps: []Step{{Op: "filter_color", Arg: b}, {Op: "count"}}}
		p := Program{Steps: []Step{
			{Op: "filter_color", Arg: a}, {Op: "count"},
			{Op: "equal_integer", Arg2: &sub},
		}}
		na, nb := 0, 0
		for _, o := range s.Objects {
			if o.Color == a {
				na++
			}
			if o.Color == b {
				nb++
			}
		}
		if na == nb {
			return p, "yes"
		}
		return p, "no"
	}
}

// Run parses one scene and answers cfg.Questions generated questions.
func (w *Workload) Run(e *ops.Engine) error {
	w.Register(e)
	g := w.g.Clone()
	scene := w.genScene(g)

	// ---- Neural: scene parsing ---------------------------------------------
	e.SetPhase(trace.Neural)
	img := e.HostToDevice(scene.Image)
	feats := w.cnn.Forward(e, img)
	host := e.DeviceToHost(e.Softmax(feats))

	// ---- Symbolic: structured scene + program execution ---------------------
	e.SetPhase(trace.Symbolic)
	// De-rendering: the structured object table, tied to the neural output
	// in the dataflow graph (the perception→executor pipeline edge).
	e.InStage("derender", func() {
		e.Logic("SceneParse", int64(len(scene.Objects)*8), int64(len(scene.Objects))*64, []*tensor.Tensor{host}, func() []*tensor.Tensor { return nil })
	})
	for q := 0; q < w.cfg.Questions; q++ {
		prog, want := w.genQuestion(g, scene)
		got := w.Execute(e, scene, prog)
		if got != want {
			return fmt.Errorf("nsvqa: program %s answered %q, want %q", prog, got, want)
		}
	}
	return nil
}

// Execute runs a program over the scene table and returns the answer.
// Every operator application is recorded as a non-vector symbolic event.
func (w *Workload) Execute(e *ops.Engine, s Scene, p Program) string {
	objs := s.Objects
	count := -1
	answer := ""
	e.InStage("program_exec", func() {
		for _, st := range p.Steps {
			st := st
			// Sub-programs execute first so their events are not nested
			// inside (and double-counted by) this operator's timing.
			other := ""
			if st.Arg2 != nil {
				other = w.Execute(e, s, *st.Arg2)
			}
			e.Logic(st.Op, int64(len(objs)+1), int64(len(objs))*32, nil, func() []*tensor.Tensor {
				switch st.Op {
				case "filter_color", "filter_shape", "filter_size":
					var kept []Object
					for _, o := range objs {
						v := o.Color
						if st.Op == "filter_shape" {
							v = o.Shape
						} else if st.Op == "filter_size" {
							v = o.Size
						}
						if v == st.Arg {
							kept = append(kept, o)
						}
					}
					objs = kept
				case "count":
					count = len(objs)
					answer = fmt.Sprint(count)
				case "exist":
					if len(objs) > 0 {
						answer = "yes"
					} else {
						answer = "no"
					}
				case "equal_integer":
					if answer == other {
						answer = "yes"
					} else {
						answer = "no"
					}
				default:
					panic(fmt.Sprintf("nsvqa: unknown operator %q", st.Op))
				}
				return nil
			})
		}
	})
	return answer
}
