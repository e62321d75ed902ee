//! # strudel-bench
//!
//! The experiment suite. Each public `exp_*` function regenerates one
//! table or figure of the paper (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for paper-vs-measured) and asserts the count-based half
//! of its shape check; the `experiments` binary dispatches on experiment
//! id. Timings are printed, not asserted: the regression yardstick for
//! them is `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod sites;

pub use sites::{paper_homepage_site, paper_news_corpus, paper_news_site, paper_org_site};
