#include "relational/catalog.h"

namespace gsopt {

Status Catalog::CreateTable(const std::string& name,
                            const std::vector<std::string>& columns) {
  if (tables_.count(name)) {
    return Status::InvalidArgument("table exists: " + name);
  }
  Schema schema;
  for (const std::string& c : columns) schema.Append(Attribute{name, c});
  VirtualSchema vschema({name});
  tables_.emplace(name, Relation(std::move(schema), std::move(vschema)));
  next_row_id_[name] = 0;
  ++version_;
  return Status::OK();
}

Status Catalog::Insert(const std::string& name, std::vector<Value> values) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table " + name);
  if (static_cast<int>(values.size()) != it->second.schema().size()) {
    return Status::InvalidArgument("arity mismatch inserting into " + name);
  }
  it->second.AddBaseRow(std::move(values), next_row_id_[name]++);
  ++version_;
  return Status::OK();
}

Status Catalog::Register(const std::string& name, Relation relation) {
  if (tables_.count(name)) {
    return Status::InvalidArgument("table exists: " + name);
  }
  if (relation.vschema().size() != 1 || relation.vschema().rel(0) != name) {
    return Status::InvalidArgument(
        "registered relation must be single-base named " + name);
  }
  RowId max_id = 0;
  for (const Tuple& t : relation.rows()) {
    if (t.vids[0] >= max_id) max_id = t.vids[0] + 1;
  }
  next_row_id_[name] = max_id;
  tables_.emplace(name, std::move(relation));
  ++version_;
  return Status::OK();
}

const Relation* Catalog::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

StatusOr<const Relation*> Catalog::Table(const std::string& name) const {
  const Relation* r = Find(name);
  if (r == nullptr) return Status::NotFound("no table " + name);
  return r;
}

StatusOr<Relation> Catalog::Get(const std::string& name) const {
  GSOPT_ASSIGN_OR_RETURN(const Relation* r, Table(name));
  return *r;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, rel] : tables_) names.push_back(name);
  return names;
}

}  // namespace gsopt
