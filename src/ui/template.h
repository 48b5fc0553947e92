// Package template (paper §3.1): "Our package template abstraction encodes
// package specifications in a familiar tabular format. The central
// component of the template is a sample package, presented as a scrollable
// table. Additional components include representations of base and global
// constraints, optimization objectives, and suggestions for additional
// package refinements."
//
// RenderPackageTemplate produces the text equivalent of that screen: the
// query's PaQL, the sample package as a table of at most 12 rows, each
// constraint with its natural-language description, the objective, and
// the sample's value of every aggregate the query mentions.

#ifndef PB_UI_TEMPLATE_H_
#define PB_UI_TEMPLATE_H_

#include <string>

#include "common/status.h"
#include "core/package.h"

namespace pb::ui {

struct TemplateOptions {
  /// Print the query's PaQL above the template.
  bool show_paql = true;
};

/// Renders the package-template view for a query and its current sample.
Result<std::string> RenderPackageTemplate(const paql::AnalyzedQuery& aq,
                                          const core::Package& sample,
                                          const TemplateOptions& options = {});

}  // namespace pb::ui

#endif  // PB_UI_TEMPLATE_H_
