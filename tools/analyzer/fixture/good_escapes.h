// analyze:allow-include-guard: fixture escape check
#include <string>

using namespace std;  // analyze:allow-using-namespace: fixture escape check

namespace fixture {

inline string Greeting() { return "hello"; }

}  // namespace fixture
