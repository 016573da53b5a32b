// Fixture: allow markers the symbol pass honours, by qualified name.
#pragma once

namespace dl2f {

class Probe {
 public:
  // lint-allow(DL008): contract probe — the tests' witness of the count
  [[nodiscard]] int count() const;
  [[nodiscard]] int other() const;
};

// lint-allow(DL008):
int unexplained();

}  // namespace dl2f

namespace dl2f::noc {

struct Mesh {
  [[nodiscard]] bool drained() const;  // lint-allow(DL008): test oracle — the golden tests' stop test
};

}  // namespace dl2f::noc
