package sql

import (
	"fmt"
	"strings"

	"xomatiq/internal/index/btree"
	"xomatiq/internal/storage/disk"
	"xomatiq/internal/storage/heap"
	"xomatiq/internal/value"
)

// TableInfo is the runtime state of one table.
type TableInfo struct {
	Name    string
	Columns []ColumnDef
	Heap    *heap.Heap
	Indexes []*IndexInfo
	rid     heap.RID // catalog row location

	// Stats is the optimizer-statistics snapshot from the last ANALYZE
	// (nil until one runs). statsRID locates its catalog "S" row when
	// hasStats is set.
	Stats    *tableStats
	statsRID heap.RID
	hasStats bool
}

// ColIndex resolves a column name to its position, or -1.
func (t *TableInfo) ColIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Schema builds the scan schema with the given binding qualifier.
func (t *TableInfo) Schema(binding string) *Schema {
	s := &Schema{Cols: make([]SchemaCol, len(t.Columns))}
	for i, c := range t.Columns {
		s.Cols[i] = SchemaCol{Table: binding, Name: c.Name, Type: c.Type}
	}
	return s
}

// IndexInfo is the runtime state of one secondary B-tree index.
type IndexInfo struct {
	Name    string
	Table   string
	Columns []string
	ColPos  []int
	BTree   *btree.Tree // nil inside a DeferIndexes window
	rid     heap.RID    // catalog row location
}

// Key builds the index key bytes for a tuple. Keys append the RID so
// duplicate column values stay unique and prefix-scannable.
func (ix *IndexInfo) Key(tup value.Tuple, rid heap.RID) []byte {
	var key []byte
	for _, pos := range ix.ColPos {
		key = tup[pos].EncodeKey(key)
	}
	return appendRID(key, rid)
}

// KeyFromRecord appends the index key of an encoded heap record to dst,
// straight from the wire bytes: no tuple decode, no string garbage. The
// bulk index rebuilds key every record of a heap scan this way.
func (ix *IndexInfo) KeyFromRecord(dst, rec []byte, rid heap.RID) ([]byte, error) {
	var err error
	for _, pos := range ix.ColPos {
		if dst, err = value.AppendFieldKey(dst, rec, pos); err != nil {
			return dst, err
		}
	}
	return appendRID(dst, rid), nil
}

// appendRID encodes a RID as 6 bytes after an index key.
func appendRID(key []byte, rid heap.RID) []byte {
	return append(key,
		byte(rid.Page>>24), byte(rid.Page>>16), byte(rid.Page>>8), byte(rid.Page),
		byte(rid.Slot>>8), byte(rid.Slot))
}

// ridFromBytes decodes a RID from its 6-byte encoding.
func ridFromBytes(p []byte) heap.RID {
	return heap.RID{
		Page: disk.PageID(uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])),
		Slot: uint16(p[4])<<8 | uint16(p[5]),
	}
}

// ridLen is the encoded size of a RID (see appendRID).
const ridLen = 6

// ridBytes encodes a RID standalone.
func ridBytes(rid heap.RID) []byte { return appendRID(nil, rid) }

// catalog is the in-memory table registry, backed by rows in the catalog
// heap.
type catalog struct {
	tables  map[string]*TableInfo // lowercased name
	indexes map[string]*IndexInfo // lowercased name
}

func newCatalog() *catalog {
	return &catalog{
		tables:  make(map[string]*TableInfo),
		indexes: make(map[string]*IndexInfo),
	}
}

func (c *catalog) table(name string) (*TableInfo, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("sql: no such table %q", name)
	}
	return t, nil
}

// Catalog row encodings. Rows are value.Tuples in the catalog heap:
//
//	table: ["T", name, firstPage, col1name, col1kind, col2name, ...]
//	index: ["I", name, table, anchorPage, false, c1, c2, ...]
//
// The index row's boolean once flagged a hash index. It is always written
// false, and a row with it set is refused: hash indexes are gone.
func encodeTableRow(name string, first disk.PageID, cols []ColumnDef) []byte {
	tup := value.Tuple{value.NewText("T"), value.NewText(name), value.NewInt(int64(first))}
	for _, c := range cols {
		tup = append(tup, value.NewText(c.Name), value.NewInt(int64(c.Type)))
	}
	return tup.Encode(nil)
}

func decodeTableRow(tup value.Tuple) (name string, first disk.PageID, cols []ColumnDef, err error) {
	if len(tup) < 3 || (len(tup)-3)%2 != 0 {
		return "", 0, nil, fmt.Errorf("sql: corrupt catalog table row")
	}
	name = tup[1].Text()
	first = disk.PageID(tup[2].Int())
	for i := 3; i < len(tup); i += 2 {
		cols = append(cols, ColumnDef{Name: tup[i].Text(), Type: value.Kind(tup[i+1].Int())})
	}
	return name, first, cols, nil
}

func encodeIndexRow(ix *IndexInfo) []byte {
	anchor := int64(-1)
	if ix.BTree != nil {
		anchor = int64(ix.BTree.Anchor())
	}
	tup := value.Tuple{
		value.NewText("I"), value.NewText(ix.Name), value.NewText(ix.Table),
		value.NewInt(anchor), value.NewBool(false),
	}
	for _, c := range ix.Columns {
		tup = append(tup, value.NewText(c))
	}
	return tup.Encode(nil)
}

func decodeIndexRow(tup value.Tuple) (name, table string, anchor int64, cols []string, err error) {
	if len(tup) < 6 {
		return "", "", 0, nil, fmt.Errorf("sql: corrupt catalog index row")
	}
	name = tup[1].Text()
	if tup[4].Bool() {
		return "", "", 0, nil, fmt.Errorf("sql: index %q is a hash index, which is no longer supported", name)
	}
	table = tup[2].Text()
	anchor = tup[3].Int()
	for i := 5; i < len(tup); i++ {
		cols = append(cols, tup[i].Text())
	}
	return name, table, anchor, cols, nil
}
