// Umbrella header: the Contory public API.
//
// A downstream application includes this header, builds a DeviceServices
// binding for its device, constructs a ContextFactory, implements the
// Client interface, and talks to Contory through the query language:
//
//   auto q = contory::query::CxtQuery::Parse(
//       "SELECT temperature FROM adHocNetwork(10,3) "
//       "WHERE accuracy=0.2 FRESHNESS 30 sec "
//       "DURATION 1 hour EVENT AVG(temperature)>25");
//   factory.ProcessCxtQuery(*q, my_client);
//
// See examples/quickstart.cpp for a complete walk-through.
#pragma once

#include "core/access_controller.hpp"
#include "core/client.hpp"
#include "core/context_factory.hpp"
#include "core/device_services.hpp"
#include "core/facade.hpp"
#include "core/model/cxt_item.hpp"
#include "core/model/cxt_value.hpp"
#include "core/model/metadata.hpp"
#include "core/model/vocabulary.hpp"
#include "core/providers/adhoc_provider.hpp"
#include "core/providers/aggregator.hpp"
#include "core/providers/infra_provider.hpp"
#include "core/providers/local_provider.hpp"
#include "core/publisher.hpp"
#include "core/query/merge.hpp"
#include "core/query/parser.hpp"
#include "core/query/predicate.hpp"
#include "core/pipeline/admission.hpp"
#include "core/pipeline/delivery_router.hpp"
#include "core/pipeline/failover_coordinator.hpp"
#include "core/pipeline/query_table.hpp"
#include "core/pipeline/strategy_planner.hpp"
#include "core/query/query.hpp"
#include "core/repository.hpp"
#include "core/resources_monitor.hpp"
#include "core/rules.hpp"
