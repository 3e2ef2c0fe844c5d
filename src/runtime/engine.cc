#include "runtime/engine.h"

namespace milr::runtime {

InferenceEngine::InferenceEngine(nn::Model& model, EngineConfig config)
    : config_(config), host_(config) {
  runtime_ = host_.AddModel(model, config, "engine");
}

}  // namespace milr::runtime
