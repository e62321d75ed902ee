//! Source descriptions.

use strudel_wrappers::bibtex::BibtexOptions;
use strudel_wrappers::html::HtmlDoc;
use strudel_wrappers::relational::TableOptions;
use strudel_wrappers::structured::RecordOptions;

/// How a source's content is interpreted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceFormat {
    /// A BibTeX bibliography (default options).
    Bibtex,
    /// A BibTeX bibliography with explicit options.
    BibtexWith(BibtexOptions),
    /// A CSV table.
    Relational(TableOptions),
    /// A key/value record file.
    Structured(RecordOptions),
    /// A batch of HTML pages placed in the named collection. The content
    /// string is ignored; pages come from [`Source::html_docs`].
    Html {
        /// Collection the wrapped pages join.
        collection: String,
    },
    /// A Strudel DDL document.
    Ddl,
}

/// One external source: name, format, and current content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Source {
    /// Unique source name.
    pub name: String,
    /// Interpretation of the content.
    pub format: SourceFormat,
    /// Text content (for text formats).
    pub content: String,
    /// HTML documents (for [`SourceFormat::Html`]).
    pub html_docs: Vec<HtmlDoc>,
    /// Optional GAV mapping: a STRUQL program applied to the wrapped
    /// source graph; its output graph joins the warehouse. Without a
    /// mapping, the wrapped graph is imported unchanged.
    pub mapping: Option<String>,
}

impl Source {
    /// A text source.
    pub fn new(name: &str, format: SourceFormat, content: &str) -> Self {
        Source {
            name: name.to_owned(),
            format,
            content: content.to_owned(),
            html_docs: Vec::new(),
            mapping: None,
        }
    }

    /// An HTML source from a batch of documents.
    pub fn html(name: &str, collection: &str, docs: Vec<HtmlDoc>) -> Self {
        Source {
            name: name.to_owned(),
            format: SourceFormat::Html {
                collection: collection.to_owned(),
            },
            content: String::new(),
            html_docs: docs,
            mapping: None,
        }
    }

    /// Attaches a GAV mapping (STRUQL source).
    pub fn with_mapping(mut self, mapping: &str) -> Self {
        self.mapping = Some(mapping.to_owned());
        self
    }
}
