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
