// Minimal leveled logger. Off by default so tests and benchmarks stay quiet;
// examples turn it on for narrative output.
#pragma once

#include <iostream>
#include <sstream>
#include <string_view>

namespace dlt {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global log threshold; messages below it are discarded.
LogLevel log_level();
void set_log_level(LogLevel level);

namespace detail {
void log_write(LogLevel level, std::string_view component, std::string_view message);
} // namespace detail

/// Stream-style log statement: DLT_LOG(kInfo, "consensus") << "new tip " << h;
class LogLine {
public:
    LogLine(LogLevel level, std::string_view component)
        : level_(level), component_(component), enabled_(level >= log_level()) {}

    ~LogLine() {
        if (enabled_) detail::log_write(level_, component_, stream_.str());
    }

    LogLine(const LogLine&) = delete;
    LogLine& operator=(const LogLine&) = delete;

    template <typename T>
    LogLine& operator<<(const T& value) {
        if (enabled_) stream_ << value;
        return *this;
    }

private:
    LogLevel level_;
    std::string_view component_;
    bool enabled_;
    std::ostringstream stream_;
};

} // namespace dlt

#define DLT_LOG(level, component) ::dlt::LogLine(::dlt::LogLevel::level, component)
