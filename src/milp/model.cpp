#include "milp/model.hpp"

#include <cmath>
#include <utility>

#include "common/assert.hpp"

namespace hi::milp {

int Model::add_continuous(double lower, double upper, double cost,
                          std::string name) {
  const int v = lp_.add_variable(lower, upper, cost, std::move(name));
  types_.push_back(VarType::kContinuous);
  return v;
}

int Model::add_binary(double cost, std::string name) {
  const int v = lp_.add_variable(0.0, 1.0, cost, std::move(name));
  types_.push_back(VarType::kBinary);
  return v;
}

int Model::add_integer(double lower, double upper, double cost,
                       std::string name) {
  HI_REQUIRE(std::isfinite(lower) && std::isfinite(upper),
             "integer variable '" << name << "' must have finite bounds");
  const int v = lp_.add_variable(lower, upper, cost, std::move(name));
  types_.push_back(VarType::kInteger);
  return v;
}

int Model::add_constraint(std::vector<lp::Term> terms, lp::Sense sense,
                          double rhs, std::string name) {
  return lp_.add_constraint(std::move(terms), sense, rhs, std::move(name));
}

int Model::add_product(const std::vector<int>& binaries, std::string name) {
  HI_REQUIRE(!binaries.empty(), "add_product: empty factor list");
  for (int b : binaries) {
    HI_REQUIRE(var_type(b) == VarType::kBinary,
               "add_product: variable " << b << " is not binary");
  }
  const int y = add_continuous(0.0, 1.0, 0.0, name.empty() ? "prod" : name);
  for (int b : binaries) {
    add_constraint({{y, 1.0}, {b, -1.0}}, lp::Sense::kLessEqual, 0.0,
                   name + "_le");
  }
  std::vector<lp::Term> terms{{y, 1.0}};
  for (int b : binaries) {
    terms.push_back({b, -1.0});
  }
  add_constraint(std::move(terms), lp::Sense::kGreaterEqual,
                 -static_cast<double>(binaries.size() - 1), name + "_ge");
  return y;
}

VarType Model::var_type(int v) const {
  HI_REQUIRE(v >= 0 && v < num_variables(), "var_type: bad index " << v);
  return types_[static_cast<std::size_t>(v)];
}

std::vector<int> Model::binary_variables() const {
  std::vector<int> out;
  for (int v = 0; v < num_variables(); ++v) {
    if (types_[static_cast<std::size_t>(v)] == VarType::kBinary) {
      out.push_back(v);
    }
  }
  return out;
}

std::vector<int> Model::integral_variables() const {
  std::vector<int> out;
  for (int v = 0; v < num_variables(); ++v) {
    if (types_[static_cast<std::size_t>(v)] != VarType::kContinuous) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace hi::milp
