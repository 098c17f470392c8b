// Package hounds implements the Data Hounds (paper §2): transport of
// remote biological databases, per-source XML-Transformers driven by
// DTDs and line-code mappings, incremental update detection against the
// sources, and change triggers to subscribed applications.
package hounds

import (
	"fmt"
	"io"
	"strings"

	"xomatiq/internal/bio"
	"xomatiq/internal/dtd"
	"xomatiq/internal/xmldoc"
)

// Transformer converts one source database format into XML documents
// (one document per entry, as the paper's ENZYME DTD dictates: "our
// algorithm produces one XML file per entry").
type Transformer interface {
	// Name identifies the format: "enzyme", "embl", "sprot".
	Name() string
	// DTD returns the document type the transformer emits.
	DTD() *dtd.DTD
	// TransformStream parses r and calls emit for every entry-document
	// in flat-file order, so XML building overlaps downstream validation
	// and shredding in the parallel ingest pipeline. Each document's Name
	// is the entry's stable key (EC number, accession). Documents are
	// not validated. A non-nil error from emit aborts the stream and is
	// returned.
	TransformStream(r io.Reader, emit func(*xmldoc.Document) error) error
	// Transform collects TransformStream's documents.
	Transform(r io.Reader) ([]*xmldoc.Document, error)
	// SequencePaths lists element paths holding sequence residues, which
	// the shredder routes to the seq_data table (paper §2.2: "we
	// differentiate between the sequence and non-sequence data").
	SequencePaths() []string
}

// collect materialises t's document stream.
func collect(t Transformer, r io.Reader) ([]*xmldoc.Document, error) {
	var docs []*xmldoc.Document
	if err := t.TransformStream(r, func(d *xmldoc.Document) error {
		docs = append(docs, d)
		return nil
	}); err != nil {
		return nil, err
	}
	return docs, nil
}

// Deprecated: TransformStream is t.TransformStream, kept for the ledger.
func TransformStream(t Transformer, r io.Reader, emit func(*xmldoc.Document) error) error {
	return t.TransformStream(r, emit)
}

// Registry maps format names to transformers.
var Registry = map[string]Transformer{
	"enzyme": EnzymeTransformer{},
	"embl":   EMBLTransformer{},
	"sprot":  SProtTransformer{},
}

// EnzymeDTD is the paper's Figure 5 DTD (spaces in names normalised to
// underscores, as Figure 8/9/11's queries do).
const EnzymeDTD = `
<!ELEMENT hlx_enzyme (db_entry)>
<!ELEMENT db_entry (enzyme_id, enzyme_description+, alternate_name_list,
  catalytic_activity*, cofactor_list, comment_list, prosite_reference*,
  swissprot_reference_list, disease_list)>
<!ELEMENT enzyme_id (#PCDATA)>
<!ELEMENT enzyme_description (#PCDATA)>
<!ELEMENT alternate_name_list (alternate_name*)>
<!ELEMENT alternate_name (#PCDATA)>
<!ELEMENT catalytic_activity (#PCDATA)>
<!ELEMENT cofactor_list (cofactor*)>
<!ELEMENT cofactor (#PCDATA)>
<!ELEMENT comment_list (comment*)>
<!ELEMENT comment (#PCDATA)>
<!ELEMENT prosite_reference (#PCDATA)>
<!ATTLIST prosite_reference prosite_accession_number NMTOKEN #REQUIRED>
<!ELEMENT swissprot_reference_list (reference*)>
<!ELEMENT reference (#PCDATA)>
<!ATTLIST reference
  name CDATA #REQUIRED
  swissprot_accession_number NMTOKEN #REQUIRED>
<!ELEMENT disease_list (disease*)>
<!ELEMENT disease (#PCDATA)>
<!ATTLIST disease mim_id CDATA #REQUIRED>
`

// EnzymeTransformer maps the ENZYME flat file to Figure 6 XML.
type EnzymeTransformer struct{}

// Name implements Transformer.
func (EnzymeTransformer) Name() string { return "enzyme" }

// DTD implements Transformer.
func (EnzymeTransformer) DTD() *dtd.DTD { return dtd.MustParse(EnzymeDTD) }

// SequencePaths implements Transformer; ENZYME has no sequence data.
func (EnzymeTransformer) SequencePaths() []string { return nil }

// Transform implements Transformer.
func (t EnzymeTransformer) Transform(r io.Reader) ([]*xmldoc.Document, error) { return collect(t, r) }

// TransformStream implements Transformer.
func (EnzymeTransformer) TransformStream(r io.Reader, emit func(*xmldoc.Document) error) error {
	entries, err := bio.ParseEnzyme(r)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := emit(EnzymeEntryToXML(e)); err != nil {
			return err
		}
	}
	return nil
}

// EnzymeEntryToXML builds the Figure 6 document for one entry.
func EnzymeEntryToXML(e *bio.EnzymeEntry) *xmldoc.Document {
	root := xmldoc.NewElement("hlx_enzyme")
	entry := root.AddChild(xmldoc.NewElement("db_entry"))
	entry.AddChild(textElem("enzyme_id", e.ID))
	for _, d := range e.Description {
		entry.AddChild(textElem("enzyme_description", d))
	}
	alts := entry.AddChild(xmldoc.NewElement("alternate_name_list"))
	for _, a := range e.AltNames {
		alts.AddChild(textElem("alternate_name", strings.TrimSuffix(a, ".")))
	}
	for _, c := range e.Catalytic {
		entry.AddChild(textElem("catalytic_activity", c))
	}
	cofs := entry.AddChild(xmldoc.NewElement("cofactor_list"))
	for _, c := range e.Cofactors {
		cofs.AddChild(textElem("cofactor", c))
	}
	comments := entry.AddChild(xmldoc.NewElement("comment_list"))
	for _, c := range e.Comments {
		comments.AddChild(textElem("comment", c))
	}
	for _, p := range e.PrositeRefs {
		pr := entry.AddChild(textElem("prosite_reference", "PROSITE"))
		pr.SetAttr("prosite_accession_number", p)
	}
	refs := entry.AddChild(xmldoc.NewElement("swissprot_reference_list"))
	for _, r := range e.SwissProt {
		ref := refs.AddChild(textElem("reference", r.Name))
		ref.SetAttr("name", r.Name)
		ref.SetAttr("swissprot_accession_number", r.Accession)
	}
	dis := entry.AddChild(xmldoc.NewElement("disease_list"))
	for _, d := range e.Diseases {
		de := dis.AddChild(textElem("disease", d.Name))
		de.SetAttr("mim_id", d.MIM)
	}
	return &xmldoc.Document{Name: e.ID, Root: root}
}

func textElem(name, text string) *xmldoc.Node {
	el := xmldoc.NewElement(name)
	if text != "" {
		el.AddText(text)
	}
	return el
}

// NSequenceDTD is the hlx_n_sequence document type both EMBL and
// Swiss-Prot map to (Figures 8 and 11 query
// document("hlx_embl.inv")/hlx_n_sequence and
// document("hlx_sprot.all")/hlx_n_sequence).
const NSequenceDTD = `
<!ELEMENT hlx_n_sequence (db_entry)>
<!ELEMENT db_entry (embl_accession_number?, sprot_accession_number?,
  entry_name, description, division?, organism?, keyword_list,
  gene_list, feature_list, db_reference_list, sequence_data?)>
<!ELEMENT embl_accession_number (#PCDATA)>
<!ELEMENT sprot_accession_number (#PCDATA)>
<!ELEMENT entry_name (#PCDATA)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT division (#PCDATA)>
<!ELEMENT organism (#PCDATA)>
<!ELEMENT keyword_list (keyword*)>
<!ELEMENT keyword (#PCDATA)>
<!ELEMENT gene_list (gene*)>
<!ELEMENT gene (#PCDATA)>
<!ELEMENT feature_list (feature*)>
<!ELEMENT feature (qualifier*)>
<!ATTLIST feature
  feature_key CDATA #REQUIRED
  location CDATA #IMPLIED>
<!ELEMENT qualifier (#PCDATA)>
<!ATTLIST qualifier qualifier_type CDATA #REQUIRED>
<!ELEMENT db_reference_list (db_reference*)>
<!ELEMENT db_reference (#PCDATA)>
<!ATTLIST db_reference database CDATA #REQUIRED>
<!ELEMENT sequence_data (#PCDATA)>
`

// nSequencePaths routes residues to seq_data for both sequence formats.
var nSequencePaths = []string{"/hlx_n_sequence/db_entry/sequence_data"}

// EMBLTransformer maps EMBL entries to hlx_n_sequence documents.
type EMBLTransformer struct{}

// Name implements Transformer.
func (EMBLTransformer) Name() string { return "embl" }

// DTD implements Transformer.
func (EMBLTransformer) DTD() *dtd.DTD { return dtd.MustParse(NSequenceDTD) }

// SequencePaths implements Transformer.
func (EMBLTransformer) SequencePaths() []string { return nSequencePaths }

// Transform implements Transformer.
func (t EMBLTransformer) Transform(r io.Reader) ([]*xmldoc.Document, error) { return collect(t, r) }

// TransformStream implements Transformer.
func (EMBLTransformer) TransformStream(r io.Reader, emit func(*xmldoc.Document) error) error {
	entries, err := bio.ParseEMBL(r)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := emit(EMBLEntryToXML(e)); err != nil {
			return err
		}
	}
	return nil
}

// EMBLEntryToXML builds the hlx_n_sequence document for one EMBL entry.
func EMBLEntryToXML(e *bio.EMBLEntry) *xmldoc.Document {
	root := xmldoc.NewElement("hlx_n_sequence")
	entry := root.AddChild(xmldoc.NewElement("db_entry"))
	entry.AddChild(textElem("embl_accession_number", e.Accession))
	entry.AddChild(textElem("entry_name", e.ID))
	entry.AddChild(textElem("description", e.Description))
	entry.AddChild(textElem("division", e.Division))
	entry.AddChild(textElem("organism", e.Organism))
	kws := entry.AddChild(xmldoc.NewElement("keyword_list"))
	for _, k := range e.Keywords {
		kws.AddChild(textElem("keyword", k))
	}
	genes := entry.AddChild(xmldoc.NewElement("gene_list"))
	for _, f := range e.Features {
		for _, q := range f.Qualifiers {
			if q.Type == "gene" && q.Value != "" {
				genes.AddChild(textElem("gene", q.Value))
			}
		}
	}
	feats := entry.AddChild(xmldoc.NewElement("feature_list"))
	for _, f := range e.Features {
		fe := feats.AddChild(xmldoc.NewElement("feature"))
		fe.SetAttr("feature_key", f.Key)
		if f.Location != "" {
			fe.SetAttr("location", f.Location)
		}
		for _, q := range f.Qualifiers {
			qe := fe.AddChild(textElem("qualifier", q.Value))
			// The GUI's join (Fig. 10-11) matches on the human-readable
			// qualifier type: "EC number" not "EC_number".
			qe.SetAttr("qualifier_type", strings.ReplaceAll(q.Type, "_", " "))
		}
	}
	entry.AddChild(xmldoc.NewElement("db_reference_list"))
	if e.Sequence != "" {
		entry.AddChild(textElem("sequence_data", e.Sequence))
	}
	return &xmldoc.Document{Name: e.Accession, Root: root}
}

// SProtTransformer maps Swiss-Prot entries to hlx_n_sequence documents.
type SProtTransformer struct{}

// Name implements Transformer.
func (SProtTransformer) Name() string { return "sprot" }

// DTD implements Transformer.
func (SProtTransformer) DTD() *dtd.DTD { return dtd.MustParse(NSequenceDTD) }

// SequencePaths implements Transformer.
func (SProtTransformer) SequencePaths() []string { return nSequencePaths }

// Transform implements Transformer.
func (t SProtTransformer) Transform(r io.Reader) ([]*xmldoc.Document, error) { return collect(t, r) }

// TransformStream implements Transformer.
func (SProtTransformer) TransformStream(r io.Reader, emit func(*xmldoc.Document) error) error {
	entries, err := bio.ParseSProt(r)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := emit(SProtEntryToXML(e)); err != nil {
			return err
		}
	}
	return nil
}

// SProtEntryToXML builds the hlx_n_sequence document for one Swiss-Prot
// entry.
func SProtEntryToXML(e *bio.SProtEntry) *xmldoc.Document {
	root := xmldoc.NewElement("hlx_n_sequence")
	entry := root.AddChild(xmldoc.NewElement("db_entry"))
	entry.AddChild(textElem("sprot_accession_number", e.Accession))
	entry.AddChild(textElem("entry_name", e.ID))
	entry.AddChild(textElem("description", e.Description))
	entry.AddChild(textElem("organism", e.Organism))
	kws := entry.AddChild(xmldoc.NewElement("keyword_list"))
	for _, k := range e.Keywords {
		kws.AddChild(textElem("keyword", k))
	}
	genes := entry.AddChild(xmldoc.NewElement("gene_list"))
	for _, g := range e.GeneNames {
		genes.AddChild(textElem("gene", g))
	}
	entry.AddChild(xmldoc.NewElement("feature_list"))
	refs := entry.AddChild(xmldoc.NewElement("db_reference_list"))
	for _, r := range e.Refs {
		re := refs.AddChild(textElem("db_reference", r.Accession))
		re.SetAttr("database", r.Database)
	}
	if e.Sequence != "" {
		entry.AddChild(textElem("sequence_data", e.Sequence))
	}
	return &xmldoc.Document{Name: e.Accession, Root: root}
}

// TransformAndValidate runs a transformer and validates every produced
// document against its DTD, failing on the first violation.
func TransformAndValidate(t Transformer, r io.Reader) ([]*xmldoc.Document, error) {
	docs, err := t.Transform(r)
	if err != nil {
		return nil, err
	}
	d := t.DTD()
	for _, doc := range docs {
		if errs := d.Validate(doc); len(errs) > 0 {
			return nil, fmt.Errorf("hounds: %s entry %q: %w", t.Name(), doc.Name, errs[0])
		}
	}
	return docs, nil
}
