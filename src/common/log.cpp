#include "common/log.hpp"

namespace dlt {

namespace {
LogLevel g_level = LogLevel::kOff;

const char* level_name(LogLevel level) {
    switch (level) {
        case LogLevel::kTrace: return "TRACE";
        case LogLevel::kDebug: return "DEBUG";
        case LogLevel::kInfo: return "INFO";
        case LogLevel::kWarn: return "WARN";
        case LogLevel::kError: return "ERROR";
        case LogLevel::kOff: return "OFF";
    }
    return "?";
}
} // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }

namespace detail {

void log_write(LogLevel level, std::string_view component, std::string_view message) {
    std::ostringstream line;
    line << '[' << level_name(level) << "] " << component << ": " << message << '\n';
    // One stream insertion so concurrent threads never interleave mid-line.
    std::clog << line.str();
}

} // namespace detail

} // namespace dlt
