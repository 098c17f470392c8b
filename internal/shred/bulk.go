// bulk.go implements the deterministic parallel shredding path used by
// the harness ingest pipeline. A Shredder carries an immutable snapshot
// of one database's path dictionary, so worker goroutines can shred
// whole documents into in-memory tuple batches without taking any lock:
// paths missing from the snapshot are recorded per document in first
// encounter order and resolved to global ids by a single-threaded merge
// (ResolveBatch) that runs in ascending document order. Because document
// ids are pre-assigned and the merge order is fixed, the resulting
// tuples, path ids and keyword postings are identical for any worker
// count — including workers=1, which is the sequential reference.
package shred

import (
	"crypto/sha256"
	"fmt"

	"xomatiq/internal/index/inverted"
	"xomatiq/internal/value"
	"xomatiq/internal/xmldoc"
)

// TokenSet is one value node's deduplicated keyword tokens, produced on
// a worker and merged into the inverted index in document order.
type TokenSet struct {
	Node   uint32
	Tokens []string
}

// DocBatch is the shredded form of one document: per-table tuple runs,
// the paths first seen while shredding it, and its keyword shard.
type DocBatch struct {
	DocID int
	Name  string
	// Digest is the document's xmldoc.Document.Digest, stored in the
	// digests table for Update to diff against.
	Digest [sha256.Size]byte

	// NewPaths lists dictionary paths absent from the Shredder's
	// snapshot, in first-encounter order. Tuples referencing one carry
	// its local index (position in NewPaths) as a placeholder path_id
	// until ResolveBatch patches in the global id.
	NewPaths []string

	Nodes []value.Tuple // nodes rows, path_id at index 6
	Str   []value.Tuple // values_str rows, path_id at index 4
	Num   []value.Tuple // values_num rows, path_id at index 4
	Seq   []value.Tuple // seq_data rows, path_id at index 4

	KW []TokenSet

	nodesPatch, strPatch, numPatch, seqPatch []int32
}

// Tuples counts the relational tuples the batch contributes, including
// its docs and digests rows (paths rows are counted by the merge).
func (b *DocBatch) Tuples() int {
	return 2 + len(b.Nodes) + len(b.Str) + len(b.Num) + len(b.Seq)
}

// Shredder is the immutable per-load state for parallel shredding. One
// Shredder is created per load; its methods are safe to call from many
// goroutines concurrently because they only read the snapshot.
type Shredder struct {
	db     string
	snap   map[string]int
	seqSet map[string]bool
	kwOn   bool
}

// NewShredder snapshots db's path dictionary for a bulk load.
func (s *Store) NewShredder(db string) (*Shredder, error) {
	if !s.HasDB(db) {
		return nil, fmt.Errorf("shred: database %q not registered", db)
	}
	s.mu.RLock()
	snap := make(map[string]int, len(s.paths[db]))
	for p, id := range s.paths[db] {
		snap[p] = id
	}
	// The per-db seqPaths set is frozen at registration, so sharing the
	// map with workers is race-free.
	sh := &Shredder{db: db, snap: snap, seqSet: s.seqPaths[db], kwOn: s.kw[db] != nil}
	s.mu.RUnlock()
	return sh, nil
}

// ReserveDocID assigns the next document id of db. The pipeline
// producer calls this once per document, in stream order, before handing
// it to a worker, so ids follow the stream whatever the worker count.
func (s *Store) ReserveDocID(db string) int {
	s.mu.Lock()
	id := s.nextDoc[db]
	s.nextDoc[db] = id + 1
	s.mu.Unlock()
	return id
}

// shredState is the reusable walk state for one document. The path
// buffer grows by truncate-and-extend, so labelling a node allocates
// nothing beyond the strings stored in tuples.
type shredState struct {
	sh      *Shredder
	b       *DocBatch
	local   map[string]int32
	pathBuf []byte
	nodeID  int
	dbv     value.Value
	docv    value.Value
}

// Shred converts one document into a DocBatch without touching the
// store. Pure CPU: safe to run on any goroutine.
func (sh *Shredder) Shred(docID int, doc *xmldoc.Document) *DocBatch {
	b := &DocBatch{DocID: docID, Name: doc.Name, Digest: doc.Digest()}
	st := &shredState{
		sh:      sh,
		b:       b,
		pathBuf: make([]byte, 0, 128),
		dbv:     value.NewText(sh.db),
		docv:    value.NewInt(int64(docID)),
	}
	st.pathBuf = append(st.pathBuf, '/')
	st.pathBuf = append(st.pathBuf, doc.Root.Name...)
	st.walk(doc.Root, -1, 1, 0, len(st.pathBuf))
	return b
}

// pathID resolves the dictionary path in buf against the snapshot,
// falling back to a local placeholder for paths first seen in this
// document. patch reports whether the returned id needs ResolveBatch.
func (st *shredState) pathID(buf []byte) (int64, bool) {
	if id, ok := st.sh.snap[string(buf)]; ok {
		return int64(id), false
	}
	if idx, ok := st.local[string(buf)]; ok {
		return int64(idx), true
	}
	p := string(buf)
	idx := int32(len(st.b.NewPaths))
	st.b.NewPaths = append(st.b.NewPaths, p)
	if st.local == nil {
		st.local = map[string]int32{}
	}
	st.local[p] = idx
	return int64(idx), true
}

// walk shreds the subtree at n, numbering its nodes in pre-order,
// attributes first. pathLen bounds the node's dictionary path in
// pathBuf.
func (st *shredState) walk(n *xmldoc.Node, parent, pos, depth, pathLen int) {
	id := st.nodeID
	st.nodeID++
	kind := kindElem
	switch n.Kind {
	case xmldoc.KindAttr:
		kind = kindAttr
	case xmldoc.KindText:
		kind = kindText
	}
	pid, patch := st.pathID(st.pathBuf[:pathLen])
	row := len(st.b.Nodes)
	st.b.Nodes = append(st.b.Nodes, value.Tuple{
		st.dbv, st.docv, value.NewInt(int64(id)), value.NewInt(int64(parent)),
		value.NewInt(int64(kind)), value.NewText(n.Name), value.NewInt(pid),
		value.NewInt(int64(pos)), value.NewInt(int64(depth)), value.NewInt(int64(id)),
	})
	if patch {
		st.b.nodesPatch = append(st.b.nodesPatch, int32(row))
	}

	if n.Kind != xmldoc.KindElement {
		// Value rows. Text nodes share their parent element's path and
		// the sequence routing path is the owning element for text,
		// the attribute path for attributes — pathBuf[:pathLen] is
		// exactly that in both cases (see the recursion below).
		st.value(n.Data, id, parent, pid, patch, st.pathBuf[:pathLen])
		return
	}

	ord := 1
	for _, a := range n.Attrs {
		st.pathBuf = append(st.pathBuf[:pathLen], '/', '@')
		st.pathBuf = append(st.pathBuf, a.Name...)
		st.walk(a, id, ord, depth+1, len(st.pathBuf))
		ord++
	}
	for _, c := range n.Children {
		if c.Kind == xmldoc.KindElement {
			st.pathBuf = append(st.pathBuf[:pathLen], '/')
			st.pathBuf = append(st.pathBuf, c.Name...)
			st.walk(c, id, ord, depth+1, len(st.pathBuf))
		} else {
			// Text child: same dictionary path as this element.
			st.walk(c, id, ord, depth+1, pathLen)
		}
		ord++
	}
	// An element's last_desc is its subtree's highest id; a leaf keeps
	// its own, set above.
	st.b.Nodes[row][9] = value.NewInt(int64(st.nodeID - 1))
}

// value emits the value rows for a text or attribute node: sequence
// paths route to seq_data only; everything else lands in values_str,
// additionally in values_num when numeric, and contributes keyword
// tokens.
func (st *shredState) value(text string, id, parent int, pid int64, patch bool, seqPath []byte) {
	base := value.Tuple{
		st.dbv, st.docv, value.NewInt(int64(id)), value.NewInt(int64(parent)),
		value.NewInt(pid), value.NewText(text),
	}
	if st.sh.seqSet[string(seqPath)] {
		st.b.Seq = append(st.b.Seq, base)
		if patch {
			st.b.seqPatch = append(st.b.seqPatch, int32(len(st.b.Seq)-1))
		}
		return
	}
	st.b.Str = append(st.b.Str, base)
	if patch {
		st.b.strPatch = append(st.b.strPatch, int32(len(st.b.Str)-1))
	}
	if f, ok := value.NewText(text).AsNumeric(); ok {
		num := value.Tuple{
			st.dbv, st.docv, value.NewInt(int64(id)), value.NewInt(int64(parent)),
			value.NewInt(pid), value.NewFloat(f),
		}
		st.b.Num = append(st.b.Num, num)
		if patch {
			st.b.numPatch = append(st.b.numPatch, int32(len(st.b.Num)-1))
		}
	}
	if st.sh.kwOn {
		if toks := inverted.TokenizeDedup(text); len(toks) > 0 {
			st.b.KW = append(st.b.KW, TokenSet{Node: uint32(id), Tokens: toks})
		}
	}
}

// ResolveBatch assigns global path ids to a batch's NewPaths (in batch
// order, so ids follow first encounter in document order, as a
// workers=1 load assigns them) and patches its placeholder path_ids. It returns the paths tuples for
// dictionary entries this merge created. Batches MUST be resolved in
// ascending DocID order for path-id determinism.
func (s *Store) ResolveBatch(db string, b *DocBatch) []value.Tuple {
	if len(b.NewPaths) == 0 {
		return nil
	}
	s.mu.Lock()
	m := s.paths[db]
	if m == nil {
		m = map[string]int{}
		s.paths[db] = m
	}
	var fresh []value.Tuple
	ids := make([]int64, len(b.NewPaths))
	for i, p := range b.NewPaths {
		id, ok := m[p]
		if !ok {
			// First global encounter (an earlier batch of this load may
			// have introduced it already).
			id = s.nextPath[db]
			s.nextPath[db] = id + 1
			m[p] = id
			fresh = append(fresh, value.Tuple{
				value.NewText(db), value.NewInt(int64(id)), value.NewText(p),
			})
		}
		ids[i] = int64(id)
	}
	s.mu.Unlock()
	for _, i := range b.nodesPatch {
		b.Nodes[i][6] = value.NewInt(ids[b.Nodes[i][6].Int()])
	}
	for _, i := range b.strPatch {
		b.Str[i][4] = value.NewInt(ids[b.Str[i][4].Int()])
	}
	for _, i := range b.numPatch {
		b.Num[i][4] = value.NewInt(ids[b.Num[i][4].Int()])
	}
	for _, i := range b.seqPatch {
		b.Seq[i][4] = value.NewInt(ids[b.Seq[i][4].Int()])
	}
	return fresh
}

// InsertChunk writes a run of shredded batches (ascending DocID) into
// the relational engine as one bulk insert per table: path dictionary
// rows first, then docs, digests, nodes and the value tables. The
// caller brackets the call in DB.Begin/Commit and merges keyword shards
// (MergeKeywords) after the chunk commits.
func (s *Store) InsertChunk(db string, batches []*DocBatch) error {
	var nNodes, nStr, nNum, nSeq int
	for _, b := range batches {
		nNodes += len(b.Nodes)
		nStr += len(b.Str)
		nNum += len(b.Num)
		nSeq += len(b.Seq)
	}
	var paths []value.Tuple
	docs := make([]value.Tuple, 0, len(batches))
	digests := make([]value.Tuple, 0, len(batches))
	nodes := make([]value.Tuple, 0, nNodes)
	str := make([]value.Tuple, 0, nStr)
	num := make([]value.Tuple, 0, nNum)
	seq := make([]value.Tuple, 0, nSeq)
	for _, b := range batches {
		paths = append(paths, s.ResolveBatch(db, b)...)
		docs = append(docs, value.Tuple{
			value.NewText(db), value.NewInt(int64(b.DocID)), value.NewText(b.Name),
		})
		digests = append(digests, value.Tuple{
			value.NewText(db), value.NewInt(int64(b.DocID)), value.NewBytes(b.Digest[:]),
		})
		nodes = append(nodes, b.Nodes...)
		str = append(str, b.Str...)
		num = append(num, b.Num...)
		seq = append(seq, b.Seq...)
	}
	for _, run := range []struct {
		table  string
		tuples []value.Tuple
	}{
		{"paths", paths}, {"docs", docs}, {"digests", digests}, {"nodes", nodes},
		{"values_str", str}, {"values_num", num}, {"seq_data", seq},
	} {
		if err := s.DB.InsertBatch(run.table, run.tuples); err != nil {
			return err
		}
	}
	return nil
}

// MergeKeywords merges a batch's keyword shard into db's inverted index.
// Called in ascending DocID order after the owning chunk commits, it
// yields the posting order of a workers=1 load.
func (s *Store) MergeKeywords(db string, b *DocBatch) {
	s.mu.RLock()
	kw := s.kw[db]
	s.mu.RUnlock()
	if kw == nil {
		return
	}
	for _, ts := range b.KW {
		kw.AddTokens(uint32(b.DocID), ts.Node, ts.Tokens)
	}
}
