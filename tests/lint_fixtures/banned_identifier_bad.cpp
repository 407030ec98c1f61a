// Fixture: banned-identifier fires on the curated replacement list, on
// unqualified abs (the int overload truncates doubles) and on the std::sto*
// family (half-parsed suffixes, wrapped signs).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

double bad_parse(const char* s) { return atof(s); }      // EXPECT-LINT
int bad_parse_int(const char* s) { return atoi(s); }     // EXPECT-LINT
void bad_format(char* buf) { sprintf(buf, "x"); }        // EXPECT-LINT
double bad_abs(double x) { return abs(x); }              // EXPECT-LINT
unsigned long long bad_count(const std::string& s) { return std::stoull(s); }  // EXPECT-LINT
double bad_real(const std::string& s) { return std::stod(s); }  // EXPECT-LINT

double ok_qualified_abs(double x) { return std::abs(x); }
double ok_fabs(double x) { return std::fabs(x); }
double ok_strtod(const char* s) { return strtod(s, nullptr); }
void ok_bounded_format(char* buf, unsigned long n) { snprintf(buf, n, "x"); }
double ok_suppressed(const char* s) { return atof(s); }  // lint:allow(banned-identifier)
int ok_member_named_abs(int abs) { return abs; }
