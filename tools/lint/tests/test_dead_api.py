#!/usr/bin/env python3
"""Self-tests for tools/lint/dead_api.py's filter, on canned nm output.

The build itself needs a compiler and minutes, so these tests feed
dead_functions the listings `nm --defined-only -C [-l]` prints and check
what it reports. Run directly or via the `lint_selftest` ctest entry.
"""

import os
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(TESTS_DIR))

import dead_api  # noqa: E402

LIBRARY_NM = """
frame.cpp.o:
0000000000000000 T dl2f::Frame::sum() const\t/repo/src/common/frame.cpp:16
0000000000000000 W dl2f::Frame::size() const\t/repo/src/common/frame.hpp:27
0000000000000000 W dl2f::Frame::empty() const\t/repo/src/common/frame.hpp:28
0000000000000000 T dl2f::Frame::Frame(int, int, float)\t/repo/src/common/frame.hpp:20
0000000000000000 W dl2f::Frame::~Frame()
0000000000000000 W dl2f::Frame::operator=(dl2f::Frame const&)
0000000000000000 T dl2f::operator<<(std::ostream&, dl2f::Frame const&)\t/repo/src/common/frame.cpp:9
0000000000000000 t dl2f::(anonymous namespace)::helper(int)
0000000000000000 W dl2f::sweep()::{lambda(int)#1}::operator()(int) const
0000000000000000 W std::vector<float, std::allocator<float> >::size() const
0000000000000000 B dl2f::global_counter
0000000000000000 V vtable for dl2f::Frame

probe.cpp.o:
0000000000000000 T dl2f::Probe::count() const\t/repo/src/probe.cpp:3
0000000000000000 T dl2f::Probe::other() const\t/repo/src/probe.cpp:4
0000000000000000 W dl2f::noc::Mesh::drained() const
0000000000000000 T non-virtual thunk to dl2f::Probe::other() const
"""

BINARY_NM = """
0000000000401000 T main
0000000000401100 T dl2f::Frame::sum() const
0000000000401200 W dl2f::Frame::size() const
0000000000401300 T dl2f::Probe::other() const [clone .cold]
"""


class QualifiedNameTests(unittest.TestCase):
    def test_strips_return_type_template_arguments_and_parameters(self):
        cases = {
            "dl2f::noc::Mesh::drained() const": "dl2f::noc::Mesh::drained",
            "float dl2f::nn::sum<float>(std::span<float const, 18446744073709551615ul>)":
                "dl2f::nn::sum",
            "dl2f::AlignedAllocator<float, 64ul>::allocate(unsigned long)":
                "dl2f::AlignedAllocator::allocate",
            "std::vector<int, std::allocator<int> > dl2f::make<int>(int)": "dl2f::make",
            "dl2f::runtime::Scenario::family[abi:cxx11]() const":
                "dl2f::runtime::Scenario::family",
        }
        for demangled, qualified in cases.items():
            self.assertEqual(dead_api.qualified_name(demangled), qualified, demangled)

    def test_keeps_operator_tokens_whole(self):
        self.assertEqual(dead_api.qualified_name("dl2f::operator<<(std::ostream&, dl2f::Coord)"),
                         "dl2f::operator<<")
        self.assertEqual(dead_api.qualified_name("dl2f::operator<(dl2f::Coord, dl2f::Coord)"),
                         "dl2f::operator<")
        self.assertEqual(dead_api.qualified_name("dl2f::Frame::operator+=(dl2f::Frame const&)"),
                         "dl2f::Frame::operator+=")

    def test_lambdas_thunks_and_local_entities_are_not_functions_of_their_own(self):
        for demangled in ("dl2f::foo()::{lambda(int)#1}::operator()(int) const",
                          "dl2f::foo()::Local::bar()",
                          "non-virtual thunk to dl2f::X::f()"):
            self.assertIsNone(dead_api.qualified_name(demangled), demangled)

    def test_reports_only_named_dl2f_functions(self):
        self.assertTrue(dead_api.is_reported("dl2f::Frame::empty"))
        self.assertTrue(dead_api.is_reported("dl2f::my_operator"))
        for qualified in ("dl2f::Frame::Frame", "dl2f::Frame::~Frame", "dl2f::Frame::operator=",
                          "std::vector::size", "dl2f::(anonymous namespace)::helper"):
            self.assertFalse(dead_api.is_reported(qualified), qualified)


class DeadFunctionTests(unittest.TestCase):
    def test_reports_library_functions_no_binary_keeps(self):
        dead = dead_api.dead_functions(LIBRARY_NM, [BINARY_NM], {"dl2f::Probe::count"})
        self.assertEqual(dead, [
            ("dl2f::Frame::empty() const", "/repo/src/common/frame.hpp:28"),
            ("dl2f::noc::Mesh::drained() const", None),
            ("dl2f::operator<<(std::ostream&, dl2f::Frame const&)",
             "/repo/src/common/frame.cpp:9"),
        ])

    def test_any_binary_keeping_a_function_is_enough(self):
        other = "0000000000401000 W dl2f::Frame::empty() const\n"
        dead = dead_api.dead_functions(LIBRARY_NM, [BINARY_NM, other],
                                       {"dl2f::Probe::count", "dl2f::noc::Mesh::drained"})
        self.assertEqual([name for name, _ in dead],
                         ["dl2f::operator<<(std::ostream&, dl2f::Frame const&)"])

    def test_allow_markers_name_qualified_functions(self):
        allowed = dead_api.allowed_functions(os.path.join(TESTS_DIR, "fixtures", "dead_api"))
        # A bare allow (no reason) covers nothing; an allow on the line
        # above or at the end of a declaration covers it.
        self.assertEqual(allowed, {"dl2f::Probe::count", "dl2f::noc::Mesh::drained"})


if __name__ == "__main__":
    unittest.main()
