// Fixture: include-guard and using-namespace must trip — a header with
// no #pragma once that leaks a namespace into every includer.

#include <string>

using namespace std;

namespace fixture {

inline string Greeting() { return "hello"; }

}  // namespace fixture
