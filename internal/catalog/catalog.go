// Package catalog defines database metadata — tables, columns, indexes —
// for the four workload families the paper evaluates on: a TPC-H-like
// schema, a TPC-DS-like star schema, and two synthetic "real-life"
// decision-support schemas standing in for the proprietary Real-1 and
// Real-2 workloads. All sizes scale with a scale factor so that the
// paper's small-SF-vs-large-SF generalization experiments can be run.
package catalog

import "fmt"

// PageSize is the logical page size in bytes, matching SQL Server's 8 KB
// pages (the substrate the paper measured on).
const PageSize = 8192

// ColType enumerates the column data types the simulator distinguishes.
// Only the byte width and comparison cost depend on the type.
type ColType int

const (
	ColInt ColType = iota
	ColBigInt
	ColFloat
	ColDecimal
	ColDate
	ColChar    // fixed-width string; Width holds the byte width
	ColVarchar // variable-width string; Width holds the average byte width
)

// String returns a SQL-ish name for the column type.
func (t ColType) String() string {
	switch t {
	case ColInt:
		return "int"
	case ColBigInt:
		return "bigint"
	case ColFloat:
		return "float"
	case ColDecimal:
		return "decimal"
	case ColDate:
		return "date"
	case ColChar:
		return "char"
	case ColVarchar:
		return "varchar"
	}
	return fmt.Sprintf("ColType(%d)", int(t))
}

// baseWidth returns the storage width in bytes for fixed-width types.
func (t ColType) baseWidth() int {
	switch t {
	case ColInt:
		return 4
	case ColBigInt, ColDate:
		return 8
	case ColFloat, ColDecimal:
		return 8
	}
	return 0
}

// Column describes one column of a table.
type Column struct {
	Name string
	Type ColType
	// Width is the (average) byte width. For fixed-width types it is
	// derived from the type; for char/varchar it must be set explicitly.
	Width int
	// DistinctFraction is the ratio of distinct values to table rows
	// (1 = unique key, small values = low-cardinality attribute).
	// DistinctCap, when > 0, caps the absolute distinct count regardless
	// of table size (e.g. nations, status flags).
	DistinctFraction float64
	DistinctCap      int64
	// Skew is the Zipf exponent of the value-frequency distribution
	// (0 = uniform). The data generator and the optimizer's histograms
	// both consume this.
	Skew float64
}

// Index describes a B-tree index over a table.
type Index struct {
	Name      string
	Columns   []string
	Unique    bool
	Clustered bool
}

// Table describes one table of a schema.
type Table struct {
	Name string
	// RowsPerSF is the row count at scale factor 1. Fixed-size tables
	// (dimension tables such as nation/region) set FixedRows instead.
	RowsPerSF int64
	FixedRows int64
	Columns   []Column
	Indexes   []Index

	colByName map[string]int
}

// Rows returns the number of rows at scale factor sf.
func (t *Table) Rows(sf float64) int64 {
	if t.FixedRows > 0 {
		return t.FixedRows
	}
	n := int64(float64(t.RowsPerSF) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// RowWidth returns the average row width in bytes (sum of column widths
// plus a fixed per-row header, as in a slotted page layout).
func (t *Table) RowWidth() int {
	const rowHeader = 11 // header + null bitmap + slot entry
	w := rowHeader
	for _, c := range t.Columns {
		w += c.EffectiveWidth()
	}
	return w
}

// EffectiveWidth returns the byte width of the column, deriving it from
// the type for fixed-width columns.
func (c *Column) EffectiveWidth() int {
	if c.Width > 0 {
		return c.Width
	}
	if w := c.Type.baseWidth(); w > 0 {
		return w
	}
	return 8
}

// Distinct returns the number of distinct values in the column for a
// table with rows total rows.
func (c *Column) Distinct(rows int64) int64 {
	d := int64(c.DistinctFraction * float64(rows))
	if c.DistinctCap > 0 && (d > c.DistinctCap || d == 0) {
		d = c.DistinctCap
	}
	if d < 1 {
		d = 1
	}
	if d > rows {
		d = rows
	}
	return d
}

// Pages returns the number of data pages at scale factor sf.
func (t *Table) Pages(sf float64) int64 {
	rows := t.Rows(sf)
	const usable = PageSize * 96 / 100 // 4% page overhead
	perPage := int64(usable) / int64(t.RowWidth())
	if perPage < 1 {
		perPage = 1
	}
	p := (rows + perPage - 1) / perPage
	if p < 1 {
		p = 1
	}
	return p
}

// Column returns the named column, or nil.
func (t *Table) Column(name string) *Column {
	if t.colByName == nil {
		t.colByName = make(map[string]int, len(t.Columns))
		for i := range t.Columns {
			t.colByName[t.Columns[i].Name] = i
		}
	}
	if i, ok := t.colByName[name]; ok {
		return &t.Columns[i]
	}
	return nil
}

// IndexDepth returns the number of B-tree levels of an index over the
// table at scale factor sf: ceil(log_fanout(leafPages)) + 1 with a
// typical fanout for 8 KB pages.
func (t *Table) IndexDepth(sf float64) int {
	rows := t.Rows(sf)
	const keysPerLeaf = 400 // ~20-byte entries on an 8K page
	const fanout = 500
	leaves := rows / keysPerLeaf
	if leaves < 1 {
		leaves = 1
	}
	depth := 1
	for leaves > 1 {
		leaves /= fanout
		depth++
	}
	if depth < 2 {
		depth = 2
	}
	return depth
}

// Schema is a named set of tables.
type Schema struct {
	Name   string
	Tables []*Table

	tblByName map[string]int
}

// Table returns the named table, or nil.
func (s *Schema) Table(name string) *Table {
	if s.tblByName == nil {
		s.tblByName = make(map[string]int, len(s.Tables))
		for i, t := range s.Tables {
			s.tblByName[t.Name] = i
		}
	}
	if i, ok := s.tblByName[name]; ok {
		return s.Tables[i]
	}
	return nil
}
