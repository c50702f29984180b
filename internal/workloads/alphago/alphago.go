// Package alphago implements a Symbolic[Neuro] workload in the style of
// AlphaGo/AlphaZero (Table I, first paradigm): a Monte-Carlo tree search
// drives the computation as the end-to-end symbolic solver, calling a
// convolutional value/policy network as an internal subroutine at the
// leaves. The game is k-in-a-row on a small board — large enough for a
// non-trivial search tree, small enough for laptop-scale characterization.
//
// Phase split: tree operations (UCT selection, expansion, backpropagation,
// move bookkeeping) are symbolic; leaf evaluation (the CNN forward pass)
// is neural. This inverts the Neuro|Symbolic pipelines: here the symbolic
// component owns the control flow and the neural component is the
// subroutine.
package alphago

import (
	"math"

	"github.com/neurosym/nsbench/internal/nn"
	"github.com/neurosym/nsbench/internal/ops"
	"github.com/neurosym/nsbench/internal/tensor"
	"github.com/neurosym/nsbench/internal/trace"
)

// Config parameterizes the workload.
type Config struct {
	Board       int   // board side; default 7
	Connect     int   // stones in a row to win; default 4
	Simulations int   // MCTS simulations per move; default 64
	Moves       int   // moves to play per Run; default 4
	Seed        int64 // default 1
}

func (c *Config) defaults() {
	if c.Board == 0 {
		c.Board = 7
	}
	if c.Connect == 0 {
		c.Connect = 4
	}
	if c.Simulations == 0 {
		c.Simulations = 64
	}
	if c.Moves == 0 {
		c.Moves = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// board holds stones: 0 empty, +1 / -1 players.
type board struct {
	n     int
	cells []int8
}

func newBoard(n int) *board { return &board{n: n, cells: make([]int8, n*n)} }

func (b *board) clone() *board {
	c := newBoard(b.n)
	copy(c.cells, b.cells)
	return c
}

// winner returns the winning player (±1), or 0.
func (b *board) winner(connect int) int8 {
	dirs := [4][2]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}}
	for y := 0; y < b.n; y++ {
		for x := 0; x < b.n; x++ {
			p := b.cells[y*b.n+x]
			if p == 0 {
				continue
			}
			for _, d := range dirs {
				run := 1
				for k := 1; k < connect; k++ {
					nx, ny := x+d[0]*k, y+d[1]*k
					if nx < 0 || ny < 0 || nx >= b.n || ny >= b.n || b.cells[ny*b.n+nx] != p {
						break
					}
					run++
				}
				if run >= connect {
					return p
				}
			}
		}
	}
	return 0
}

func (b *board) full() bool {
	for _, c := range b.cells {
		if c == 0 {
			return false
		}
	}
	return true
}

// node is one MCTS tree node.
type node struct {
	move     int // move that led here (-1 at root)
	player   int8
	parent   *node
	children []*node
	visits   int
	value    float64 // accumulated value from the current player's view
	prior    float32
	expanded bool
}

// Workload is the MCTS + network instance.
type Workload struct {
	cfg Config
	g   *tensor.RNG
	net *nn.CNN    // shared trunk
	pol *nn.Linear // policy head over trunk features
	val *nn.Linear // value head
}

// New constructs the workload.
func New(cfg Config) *Workload {
	cfg.defaults()
	g := tensor.NewRNG(cfg.Seed)
	w := &Workload{cfg: cfg, g: g}
	w.net = nn.NewCNN(g, "alphago.trunk", nn.CNNConfig{InChannels: 2, InSize: cfg.Board, Channels: []int{16}, Residual: true, OutDim: 64})
	w.pol = nn.NewLinear(g, "alphago.policy", 64, cfg.Board*cfg.Board, true)
	w.val = nn.NewLinear(g, "alphago.value", 64, 1, true)
	return w
}

// Name implements the workload identity.
func (w *Workload) Name() string { return "AlphaGo" }

// Category is the workload's taxonomy category (Table I).
const Category = "Symbolic[Neuro]"

// Category returns the taxonomy category.
func (w *Workload) Category() string { return Category }

// Register records the model's persistent parameters.
func (w *Workload) Register(e *ops.Engine) {
	w.net.Register(e)
	w.pol.Register(e)
	w.val.Register(e)
}

// Run plays cfg.Moves self-play moves, each decided by an MCTS with
// cfg.Simulations simulations.
func (w *Workload) Run(e *ops.Engine) error { return w.RunBatch(e, 1) }

// RunBatch plays the self-play game once for n batch replicas: leaf
// evaluations run the network over a batch of n replicated board images,
// while the tree operations — identical across replicas — execute once
// under replica amplification. The search control flow (and therefore the
// game) is exactly that of a solo run.
func (w *Workload) RunBatch(e *ops.Engine, n int) error {
	w.Register(e)
	b := newBoard(w.cfg.Board)
	player := int8(1)
	for mv := 0; mv < w.cfg.Moves; mv++ {
		move, err := w.searchBatch(e, b, player, n)
		if err != nil {
			return err
		}
		if move < 0 {
			return nil // game over
		}
		b.cells[move] = player
		player = -player
		if b.winner(w.cfg.Connect) != 0 {
			return nil
		}
	}
	return nil
}

// Search runs MCTS from the position and returns the chosen move.
func (w *Workload) Search(e *ops.Engine, root *board, player int8) (int, error) {
	return w.searchBatch(e, root, player, 1)
}

// searchBatch is Search with a batch dimension on the neural leaf
// evaluations and replica amplification on the symbolic tree operations.
func (w *Workload) searchBatch(e *ops.Engine, root *board, player int8, batch int) (int, error) {
	if root.full() {
		return -1, nil
	}
	rootNode := &node{move: -1, player: -player}
	for sim := 0; sim < w.cfg.Simulations; sim++ {
		b := root.clone()
		n := rootNode
		// ---- Symbolic: UCT selection down the tree ----------------------
		e.SetPhase(trace.Symbolic)
		e.InReplicas(batch, func() {
			e.InStage("mcts_select", func() {
				e.Logic("UCTSelect", int64(len(n.children)+1), 64, nil, func() []*tensor.Tensor {
					for n.expanded && len(n.children) > 0 {
						n = bestChild(n)
						b.cells[n.move] = n.player
					}
					return nil
				})
			})
		})
		win := b.winner(w.cfg.Connect)
		var value float64
		if win != 0 {
			value = float64(win) * float64(n.player)
		} else if !b.full() {
			// ---- Neural: value/policy evaluation of the leaf -------------
			var priors *tensor.Tensor
			e.SetPhase(trace.Neural)
			feats := w.evaluateBatch(e, b, -n.player, batch)
			priors = e.Softmax(w.pol.ForwardBatch(e, feats, batch))
			v := e.Tanh(w.val.ForwardBatch(e, feats, batch))
			value = -float64(v.At(0, 0)) // value from n.player's view (item 0)

			// ---- Symbolic: expansion with the network priors -------------
			e.SetPhase(trace.Symbolic)
			e.InReplicas(batch, func() {
				e.InStage("mcts_expand", func() {
					e.Logic("Expand", int64(b.n*b.n), int64(b.n*b.n)*8, []*tensor.Tensor{priors}, func() []*tensor.Tensor {
						for i, c := range b.cells {
							if c == 0 {
								n.children = append(n.children, &node{
									move: i, player: -n.player, parent: n,
									prior: priors.At(0, i),
								})
							}
						}
						n.expanded = true
						return nil
					})
				})
			})
		}
		// ---- Symbolic: backpropagation up the tree ----------------------
		e.SetPhase(trace.Symbolic)
		e.InReplicas(batch, func() {
			e.InStage("mcts_backup", func() {
				e.Logic("Backup", 16, 64, nil, func() []*tensor.Tensor {
					sign := 1.0
					for cur := n; cur != nil; cur = cur.parent {
						cur.visits++
						cur.value += value * sign
						sign = -sign
					}
					return nil
				})
			})
		})
	}
	// Final move choice: most-visited child.
	best, bestVisits := -1, -1
	for _, c := range rootNode.children {
		if c.visits > bestVisits {
			best, bestVisits = c.move, c.visits
		}
	}
	if best == -1 {
		// Root never expanded (immediate terminal); pick any empty cell.
		for i, c := range root.cells {
			if c == 0 {
				return i, nil
			}
		}
		return -1, nil
	}
	return best, nil
}

// evaluateBatch encodes the board as a two-plane image, replicated batch
// times along the leading axis, and runs the trunk over the whole batch.
func (w *Workload) evaluateBatch(e *ops.Engine, b *board, toMove int8, batch int) *tensor.Tensor {
	img := tensor.New(batch, 2, b.n, b.n)
	plane := b.n * b.n
	for i, c := range b.cells {
		switch {
		case c == toMove:
			img.Data()[i] = 1
		case c == -toMove:
			img.Data()[plane+i] = 1
		}
	}
	for k := 1; k < batch; k++ {
		copy(img.Data()[k*2*plane:(k+1)*2*plane], img.Data()[:2*plane])
	}
	x := e.HostToDevice(img)
	return w.net.ForwardBatch(e, x, batch)
}

// bestChild applies the PUCT criterion.
func bestChild(n *node) *node {
	var best *node
	bestScore := math.Inf(-1)
	for _, c := range n.children {
		q := 0.0
		if c.visits > 0 {
			q = c.value / float64(c.visits)
		}
		u := 1.4 * float64(c.prior) * math.Sqrt(float64(n.visits)+1) / float64(1+c.visits)
		if s := q + u; s > bestScore {
			bestScore, best = s, c
		}
	}
	return best
}
