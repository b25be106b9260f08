package catalog

import "sort"

// TableNames returns the sorted list of table names.
func (s *Schema) TableNames() []string {
	names := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names
}

// TotalRows returns the sum of row counts over all tables at sf.
func (s *Schema) TotalRows(sf float64) int64 {
	var n int64
	for _, t := range s.Tables {
		n += t.Rows(sf)
	}
	return n
}

// TotalBytes returns the approximate data size in bytes at sf.
func (s *Schema) TotalBytes(sf float64) int64 {
	var n int64
	for _, t := range s.Tables {
		n += t.Pages(sf) * PageSize
	}
	return n
}
