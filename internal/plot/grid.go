package plot

import (
	"fmt"
	"strings"
)

// Grid lays out charts as small multiples: a fixed column count, row-major
// cell order, one shared title. Each cell is a full Chart rendered into a
// nested <svg> viewport, so every panel keeps its own axes and scales —
// the right shape for "metric × device" figure families where absolute
// ranges differ by orders of magnitude between panels.
//
// Like Chart, rendering is deterministic: the same Grid value yields
// byte-identical SVG on every call, so grid figures golden-pin and diff
// exactly like single charts.
type Grid struct {
	Title string
	// Cols is the column count; zero means a single column.
	Cols int
	// CellWidth and CellHeight are per-panel pixel dimensions; zero means
	// the 360×240 default (half-scale panels keep a 12-cell grid readable).
	CellWidth  int
	CellHeight int
	// Cells render in row-major slice order. A cell's own Width/Height are
	// overridden by the grid's cell dimensions.
	Cells []Chart
}

// Default per-cell dimensions.
const (
	defaultCellWidth  = 360
	defaultCellHeight = 240
)

// gridTitleBand is the height reserved for a non-empty grid title.
const gridTitleBand = 28

// SVG returns the grid as a standalone SVG document.
func (g *Grid) SVG() string {
	b := &strings.Builder{}
	g.render(b)
	return b.String()
}

func (g *Grid) render(b *strings.Builder) {
	cols := g.Cols
	if cols <= 0 {
		cols = 1
	}
	cw, ch := g.CellWidth, g.CellHeight
	if cw <= 0 {
		cw = defaultCellWidth
	}
	if ch <= 0 {
		ch = defaultCellHeight
	}
	rows := (len(g.Cells) + cols - 1) / cols
	top := 0
	if g.Title != "" {
		top = gridTitleBand
	}
	w := cols * cw
	if w == 0 {
		w = cw
	}
	h := top + rows*ch
	if rows == 0 {
		h = top + ch // an empty grid still renders a valid frame
	}

	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`+"\n",
		w, h, w, h)
	fmt.Fprintf(b, `<rect x="0" y="0" width="%d" height="%d" fill="#ffffff"/>`+"\n", w, h)
	if g.Title != "" {
		fmt.Fprintf(b, `<text x="%s" y="19" font-size="15" font-weight="bold" text-anchor="middle">%s</text>`+"\n",
			px(float64(w)/2), esc(g.Title))
	}
	for i := range g.Cells {
		c := g.Cells[i] // copy: the grid's cell geometry must win
		c.Width, c.Height = cw, ch
		f := c.layout()
		x := (i % cols) * cw
		y := top + (i/cols)*ch
		fmt.Fprintf(b, `<svg x="%d" y="%d" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
			x, y, cw, ch, cw, ch)
		c.renderFrame(b, f)
		b.WriteString("</svg>\n")
	}
	b.WriteString("</svg>\n")
}
